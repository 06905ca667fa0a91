module Topology = Synts_graph.Topology
module Decomposition = Synts_graph.Decomposition
module Trace = Synts_sync.Trace
module Vector = Synts_clock.Vector
module Wire = Synts_clock.Wire
module Online = Synts_core.Online
module Ingest = Synts_ingest.Ingest
module Engine = Synts_server.Engine
module Protocol = Synts_server.Protocol
module Service = Synts_server.Service
module Server = Synts_server.Server
module Client = Synts_server.Client
module Session = Synts_session.Session
module Injector = Synts_fault.Injector
module Plan = Synts_fault.Plan
module Workload = Synts_workload.Workload
module Rng = Synts_util.Rng
module Gen = Synts_test_support.Gen

let qtest ?(count = 100) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let events_of_trace trace =
  Array.of_list (List.map Ingest.event_of_step (Trace.steps trace))

(* ---------- engine ≡ Online.stamper ---------- *)

(* Feed a whole trace through a session (the deterministic reference
   sink), collecting message stamps and resolved internal stamps. *)
let session_reference d trace =
  let session = Session.of_decomposition d in
  let outcomes = Ingest.feed_trace (Session.ingest session) trace in
  let stamps = Ingest.message_stamps outcomes in
  let resolved = Session.finish_events session in
  (stamps, List.sort compare resolved)

let engine_run ~batch d trace =
  let engine = Engine.create d in
  Fun.protect
    ~finally:(fun () -> Engine.stop engine)
    (fun () ->
      let events = events_of_trace trace in
      let total = Array.length events in
      let outcomes = Array.make total (Ingest.Deferred (-1)) in
      let resolved = ref [] in
      let off = ref 0 in
      while !off < total do
        let len = min batch (total - !off) in
        let out = Engine.observe_batch engine (Array.sub events !off len) in
        Array.blit out 0 outcomes !off len;
        resolved := Engine.drain engine @ !resolved;
        off := !off + len
      done;
      resolved := Engine.finish engine @ !resolved;
      (Ingest.message_stamps outcomes, List.sort compare !resolved))

let test_engine_matches_oracle =
  qtest ~count:60 "stamps + internal = Online.stamper"
    Gen.computation Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let oracle = Online.timestamp_trace d trace in
      let ref_stamps, ref_resolved = session_reference d trace in
      let stamps, resolved = engine_run ~batch:7 d trace in
      Array.for_all2 Vector.equal stamps oracle
      && Array.for_all2 Vector.equal stamps ref_stamps
      && resolved = ref_resolved)

let batch_split_gen = QCheck2.Gen.(pair Gen.computation (int_range 1 13))

let batch_split_print (c, batch) =
  Printf.sprintf "%s batch=%d" (Gen.computation_print c) batch

let test_engine_batch_split_invariant =
  qtest ~count:60 "batch boundaries do not change stamps" batch_split_gen
    batch_split_print (fun (c, batch) ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let whole, _ = engine_run ~batch:max_int d trace in
      let split, _ = engine_run ~batch d trace in
      Array.for_all2 Vector.equal whole split)

(* ---------- protocol codec ---------- *)

let vector_gen = QCheck2.Gen.(array_size (int_bound 6) (int_bound 1000))

let event_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun src dst -> Ingest.Message { src; dst }) (int_bound 40)
          (int_bound 40);
        map (fun proc -> Ingest.Internal { proc }) (int_bound 40);
      ])

let request_gen =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Hello;
        map2
          (fun seq events -> Protocol.Observe { seq; events })
          (int_bound 10000)
          (array_size (int_bound 20) event_gen);
        return Protocol.Drain;
        return Protocol.Finish;
        return Protocol.Verify;
        return Protocol.Stats;
        map (fun s -> Protocol.Churn s) (string_size (int_bound 30));
        return Protocol.Shutdown;
      ])

let stamp_gen =
  QCheck2.Gen.(
    let* proc = int_bound 40 in
    let* prev = vector_gen in
    let* succ = option vector_gen in
    let* counter = int_bound 100 in
    return { Synts_core.Internal_events.proc; prev; succ; counter })

let response_gen =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun (processes, dimension, epoch) ->
            Protocol.Welcome { processes; dimension; epoch })
          (triple (int_bound 100) (int_bound 100) (int_bound 50));
        map
          (fun outcomes -> Protocol.Outcomes outcomes)
          (array_size (int_bound 20)
             (oneof
                [
                  map (fun v -> Ingest.Stamped v) vector_gen;
                  map (fun t -> Ingest.Deferred t) (int_bound 10000);
                ]));
        map
          (fun rs -> Protocol.Resolved rs)
          (list_size (int_bound 10) (pair (int_bound 10000) stamp_gen));
        map2
          (fun ok checked -> Protocol.Verified { ok; checked })
          bool (int_bound 10000);
        map2
          (fun (clients, batches, messages, internal) (dropped, pending) ->
            Protocol.Stats_r
              { clients; batches; messages; internal; dropped; pending })
          (quad (int_bound 100) (int_bound 1000) (int_bound 1000)
             (int_bound 1000))
          (pair (int_bound 1000) (int_bound 1000));
        map
          (fun (epoch, processes, dimension) ->
            Protocol.Epoch_r { epoch; processes; dimension })
          (triple (int_bound 50) (int_bound 100) (int_bound 100));
        map (fun e -> Protocol.Error_r e) (string_size (int_bound 40));
        return Protocol.Bye;
      ])

let test_request_roundtrip =
  qtest ~count:200 "request codec roundtrips" request_gen
    (Format.asprintf "%a" Protocol.pp_request) (fun req ->
      Protocol.decode_request (Protocol.encode_request req) = Ok req)

let test_response_roundtrip =
  qtest ~count:200 "response codec roundtrips" response_gen
    (Format.asprintf "%a" Protocol.pp_response) (fun resp ->
      Protocol.decode_response (Protocol.encode_response resp) = Ok resp)

(* ---------- wire versioning ---------- *)

let test_wire_versioning () =
  let body = "stamping bytes" in
  let v1 = Wire.frame body in
  Alcotest.(check char) "magic first" Wire.magic v1.[0];
  Alcotest.(check int) "announces v1" Wire.current_version
    (Wire.frame_version v1);
  Alcotest.(check (result string string)) "v1 unframes" (Ok body)
    (Wire.unframe v1);
  let v0 = Wire.frame ~version:0 body in
  Alcotest.(check int) "legacy announces 0" 0 (Wire.frame_version v0);
  Alcotest.(check (result string string)) "v0 still decodes" (Ok body)
    (Wire.unframe v0);
  (* A frame from the future is turned away with a clear error, not a
     checksum complaint. *)
  let future = Bytes.of_string v1 in
  Bytes.set future 1 '\x07';
  (match Wire.unframe (Bytes.to_string future) with
  | Error e ->
      Alcotest.(check bool) "names the version" true
        (contains ~sub:"unsupported wire version 7" e)
  | Ok _ -> Alcotest.fail "future version accepted");
  match Wire.frame ~version:3 body with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown version framed"

let test_wire_versioned_vectors () =
  let v = [| 3; 0; 7; 12 |] in
  Alcotest.(check bool) "v1 vector roundtrip" true
    (Wire.decode_framed (Wire.encode_framed v) = Ok v);
  Alcotest.(check bool) "v0 vector roundtrip" true
    (Wire.decode_framed (Wire.encode_framed ~version:0 v) = Ok v)

(* ---------- service: dup / corrupt exactness ---------- *)

let faulty_service_gen = QCheck2.Gen.pair Gen.computation Gen.rng_seed

let faulty_service_print (c, seed) =
  Printf.sprintf "%s inj_seed=%d" (Gen.computation_print c) seed

(* Drive the byte-level request path through a fault injector that
   duplicates and corrupts deliveries; the sequence-number dedup plus the
   checksum frame must keep the stamps exactly the oracle's. *)
let test_service_dup_corrupt =
  qtest ~count:50 "dup/corrupt deliveries never skew stamps"
    faulty_service_gen faulty_service_print (fun (c, seed) ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let service = Service.create ~check:true d in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          let conn = Service.attach service in
          let inj =
            Injector.create ~seed
              [
                Plan.Duplicate { prob = 0.3 };
                Plan.Corrupt { prob = 0.3 };
              ]
          in
          let deliver raw =
            let wire =
              if Injector.roll_corrupt inj then Injector.flip_bit inj raw
              else raw
            in
            let reply = Service.handle_raw service conn wire in
            if Injector.roll_duplicate inj then
              Service.handle_raw service conn wire
            else reply
          in
          let decode reply =
            match Wire.unframe reply with
            | Error e -> failwith ("reply frame: " ^ e)
            | Ok body -> (
                match Protocol.decode_response body with
                | Error e -> failwith ("reply decode: " ^ e)
                | Ok r -> r)
          in
          let events = events_of_trace trace in
          let total = Array.length events in
          let seq = ref 0 and off = ref 0 in
          while !off < total do
            let len = min 9 (total - !off) in
            let req =
              Protocol.Observe { seq = !seq; events = Array.sub events !off len }
            in
            let raw = Wire.frame (Protocol.encode_request req) in
            let rec attempt tries =
              if tries > 64 then failwith "no progress against injector";
              match decode (deliver raw) with
              | Protocol.Outcomes out -> out
              | Protocol.Error_r _ -> attempt (tries + 1)
              | other ->
                  Format.kasprintf failwith "unexpected %a"
                    Protocol.pp_response other
            in
            let out = attempt 0 in
            if Array.length out <> len then failwith "outcome count";
            incr seq;
            off := !off + len
          done;
          match Service.handle service conn Protocol.Verify with
          | Protocol.Verified { ok; checked } ->
              ok && checked = Trace.message_count trace
          | other ->
              Format.kasprintf failwith "unexpected verify reply %a"
                Protocol.pp_response other))

let test_service_dup_replies_cached () =
  let d = Decomposition.best (Topology.ring 4) in
  let service = Service.create ~check:true d in
  Fun.protect
    ~finally:(fun () -> Service.stop service)
    (fun () ->
      let conn = Service.attach service in
      let events = [| Ingest.Message { src = 0; dst = 1 } |] in
      let req = Protocol.Observe { seq = 0; events } in
      let first = Service.handle service conn req in
      let second = Service.handle service conn req in
      Alcotest.(check bool) "dup answered from cache" true (first = second);
      match Service.handle service conn Protocol.Stats with
      | Protocol.Stats_r { batches; messages; _ } ->
          Alcotest.(check int) "stamped once" 1 batches;
          Alcotest.(check int) "one message" 1 messages
      | _ -> Alcotest.fail "stats reply")

let test_service_rejects_gap_and_stale () =
  let d = Decomposition.best (Topology.ring 4) in
  let service = Service.create d in
  Fun.protect
    ~finally:(fun () -> Service.stop service)
    (fun () ->
      let conn = Service.attach service in
      let observe seq =
        Service.handle service conn
          (Protocol.Observe
             { seq; events = [| Ingest.Message { src = 0; dst = 1 } |] })
      in
      (match observe 0 with
      | Protocol.Outcomes _ -> ()
      | _ -> Alcotest.fail "first observe");
      (match observe 5 with
      | Protocol.Error_r e ->
          Alcotest.(check bool) "gap named" true (contains ~sub:"gap" e)
      | _ -> Alcotest.fail "gap accepted");
      match
        Service.handle service conn
          (Protocol.Observe
             { seq = -3; events = [| Ingest.Message { src = 0; dst = 1 } |] })
      with
      | Protocol.Error_r _ -> ()
      | _ -> Alcotest.fail "negative seq accepted")

(* A batch the backend rejects must change nothing: the same three
   requests on complete:4, with a self-loop message second in the
   rejected batch, then a retry that reuses its sequence number. A
   message stamped before the rejection would stay in the backend's
   clocks, skew the retry's stamp and fail Verify. *)
let test_service_rejected_batch_atomic () =
  let d = Decomposition.best (Topology.complete 4) in
  let msg src dst = Ingest.Message { src; dst } in
  List.iter
    (fun offline ->
      let name = if offline then "offline" else "online" in
      let service = Service.create ~offline ~check:true d in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          let conn = Service.attach service in
          let observe seq events =
            Service.handle service conn (Protocol.Observe { seq; events })
          in
          (match observe 0 [| msg 0 2 |] with
          | Protocol.Outcomes _ -> ()
          | _ -> Alcotest.fail (name ^ ": first batch"));
          (match observe 1 [| msg 0 1; msg 2 2 |] with
          | Protocol.Error_r _ -> ()
          | _ -> Alcotest.fail (name ^ ": bad batch accepted"));
          (match observe 1 [| msg 1 3 |] with
          | Protocol.Outcomes _ -> ()
          | _ -> Alcotest.fail (name ^ ": retry"));
          match Service.handle service conn Protocol.Verify with
          | Protocol.Verified { ok; checked } ->
              Alcotest.(check bool) (name ^ " verifies") true ok;
              (* Offline Verify counts message pairs, online messages. *)
              Alcotest.(check int) (name ^ " checked")
                (if offline then 1 else 2)
                checked
          | other ->
              Format.kasprintf (fun s -> Alcotest.fail s) "%s verify: %a" name
                Protocol.pp_response other))
    [ true; false ]

(* ---------- service: churn / engine resharding ---------- *)

(* One scripted epoch crossing: the engine is retired and rebuilt, yet
   the connection's sequence state, the ticket space and the pending
   internal events all survive, and the epoch-aware verify replay agrees
   with every stamp on both sides of the boundary. *)
let test_service_churn_reshard () =
  let d = Decomposition.best (Topology.ring 4) in
  let service = Service.create ~check:true d in
  Fun.protect
    ~finally:(fun () -> Service.stop service)
    (fun () ->
      let conn = Service.attach service in
      let seq = ref (-1) in
      let observe events =
        incr seq;
        match Service.handle service conn (Protocol.Observe { seq = !seq; events }) with
        | Protocol.Outcomes out -> out
        | other ->
            Format.kasprintf (fun s -> Alcotest.fail s) "observe: %a" Protocol.pp_response
              other
      in
      let msg src dst = Ingest.Message { src; dst } in
      ignore (observe [| msg 0 1; msg 1 2; msg 2 3 |]);
      (* A deferred internal event whose resolution must survive the
         reshard via the carry queue. *)
      let ticket =
        match observe [| Ingest.Internal { proc = 0 } |] with
        | [| Ingest.Deferred k |] -> k
        | _ -> Alcotest.fail "internal not deferred"
      in
      (match Service.handle service conn (Protocol.Churn "join:4:4-0,4-2") with
      | Protocol.Epoch_r { epoch; processes; dimension } ->
          Alcotest.(check int) "epoch advanced" 1 epoch;
          Alcotest.(check int) "universe grew" 5 processes;
          Alcotest.(check bool) "width kept or grew" true (dimension >= 2)
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "churn: %a" Protocol.pp_response other);
      (* The flushed internal event is owed on the next drain. *)
      (match Service.handle service conn Protocol.Drain with
      | Protocol.Resolved resolved ->
          Alcotest.(check bool) "carried ticket resolved" true
            (List.mem_assoc ticket resolved)
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "drain: %a" Protocol.pp_response other);
      (* Same connection keeps observing, now on a new-epoch channel. *)
      ignore (observe [| msg 4 0; msg 0 1; msg 4 2 |]);
      (match Service.handle service conn (Protocol.Churn "leave:3") with
      | Protocol.Epoch_r { epoch; _ } ->
          Alcotest.(check int) "second epoch" 2 epoch
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "churn: %a" Protocol.pp_response other);
      ignore (observe [| msg 0 1; msg 1 2; msg 4 0 |]);
      (* The retired channel is rejected by the new epoch's layout
         without consuming the sequence. *)
      incr seq;
      (match
         Service.handle service conn
           (Protocol.Observe { seq = !seq; events = [| msg 2 3 |] })
       with
      | Protocol.Error_r _ -> decr seq
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "stale channel: %a"
            Protocol.pp_response other);
      (match Service.handle service conn Protocol.Hello with
      | Protocol.Welcome { epoch; processes; _ } ->
          Alcotest.(check int) "welcome epoch" 2 epoch;
          Alcotest.(check int) "welcome n" 5 processes
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "hello: %a" Protocol.pp_response other);
      match Service.handle service conn Protocol.Verify with
      | Protocol.Verified { ok; checked } ->
          Alcotest.(check bool) "epoch-aware verify" true ok;
          Alcotest.(check int) "all messages checked" 9 checked
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "verify: %a" Protocol.pp_response other)

(* Random interleavings of observes and a fixed valid delta script: the
   engine sequence must stay exact against the epoch-aware oracle no
   matter where the epoch boundaries land in the arrival order. *)
let churn_service_gen = QCheck2.Gen.(pair Gen.rng_seed (int_range 10 60))

let test_service_churn_random =
  qtest ~count:50 "random epoch boundaries keep verify exact"
    churn_service_gen
    (fun (seed, msgs) -> Printf.sprintf "seed=%d msgs=%d" seed msgs)
    (fun (seed, msgs) ->
      let g0 = Topology.ring 5 in
      let d = Decomposition.best g0 in
      let service = Service.create ~check:true d in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          let conn = Service.attach service in
          let rng = Rng.create seed in
          (* Valid in sequence on ring 5; the mirror edge list tracks the
             live topology so observes always hit a current channel. *)
          let script =
            ref
              [
                ("join:5:5-0,5-2", [ (5, 0); (5, 2) ], []);
                ("drop:1-2", [], [ (1, 2) ]);
                ("leave:3", [], [ (2, 3); (3, 4) ]);
                ("add:2-4", [ (2, 4) ], []);
              ]
          in
          let edges = ref [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
          let seq = ref (-1) in
          let sent = ref 0 in
          for _ = 1 to msgs do
            (match !script with
            | (spec, added, removed) :: rest when Rng.chance rng 0.15 -> (
                match Service.handle service conn (Protocol.Churn spec) with
                | Protocol.Epoch_r _ ->
                    script := rest;
                    edges :=
                      added
                      @ List.filter
                          (fun (u, v) ->
                            not
                              (List.exists
                                 (fun (a, b) ->
                                   (a = u && b = v) || (a = v && b = u))
                                 removed))
                          !edges
                | other ->
                    Format.kasprintf failwith "churn %s: %a" spec
                      Protocol.pp_response other)
            | _ -> ());
            let u, v = List.nth !edges (Rng.int rng (List.length !edges)) in
            let src, dst = if Rng.bool rng then (u, v) else (v, u) in
            incr seq;
            incr sent;
            match
              Service.handle service conn
                (Protocol.Observe
                   {
                     seq = !seq;
                     events = [| Ingest.Message { src; dst } |];
                   })
            with
            | Protocol.Outcomes _ -> ()
            | other ->
                Format.kasprintf failwith "observe: %a" Protocol.pp_response
                  other
          done;
          match Service.handle service conn Protocol.Verify with
          | Protocol.Verified { ok; checked } -> ok && checked = !sent
          | other ->
              Format.kasprintf failwith "verify: %a" Protocol.pp_response other))

(* ---------- sockets: daemon round trip ---------- *)

let test_socket_roundtrip () =
  let dir = Filename.temp_dir "synts-serve" "" in
  let path = Filename.concat dir "serve.sock" in
  let g = Topology.client_server ~servers:2 ~clients:3 in
  let d = Decomposition.best g in
  let trace =
    Workload.random (Rng.create 42) ~topology:g ~messages:120
      ~internal_prob:0.15 ()
  in
  let handle = Server.spawn ~check:true (Server.Unix_socket path) d in
  let clients = Array.init 3 (fun _ -> Client.connect (Server.Unix_socket path)) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Client.close clients;
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      Alcotest.(check int) "welcome n" (Decomposition.graph_vertices d)
        (Client.processes clients.(0));
      let events = events_of_trace trace in
      let total = Array.length events in
      (* Interleave the stream across the three clients batch by batch;
         arrival order at the daemon is the trace order, so the oracle
         replay must agree exactly. *)
      let off = ref 0 and turn = ref 0 in
      let stamped = ref 0 in
      while !off < total do
        let len = min 11 (total - !off) in
        let out =
          Client.observe_batch clients.(!turn mod 3) (Array.sub events !off len)
        in
        Array.iter
          (function Ingest.Stamped _ -> incr stamped | Ingest.Deferred _ -> ())
          out;
        incr turn;
        off := !off + len
      done;
      Alcotest.(check int) "all messages stamped" (Trace.message_count trace)
        !stamped;
      let resolved = Client.finish clients.(0) in
      Alcotest.(check int) "internal events resolved"
        (Trace.internal_count trace)
        (List.length resolved);
      (match Client.verify_server clients.(0) with
      | Ok (ok, checked) ->
          Alcotest.(check bool) "oracle agrees" true ok;
          Alcotest.(check int) "checked all messages"
            (Trace.message_count trace) checked
      | Error e -> Alcotest.fail ("verify: " ^ e));
      (match Client.server_stats clients.(0) with
      | Ok ({ clients = n_clients; messages; _ } : Client.stats) ->
          Alcotest.(check int) "three clients" 3 n_clients;
          Alcotest.(check int) "message count" (Trace.message_count trace)
            messages
      | Error e -> Alcotest.fail ("stats: " ^ e));
      Client.shutdown clients.(2);
      Server.join handle)

let () =
  Alcotest.run "server"
    [
      ( "engine",
        [ test_engine_matches_oracle; test_engine_batch_split_invariant ] );
      ( "protocol",
        [
          test_request_roundtrip;
          test_response_roundtrip;
          Alcotest.test_case "wire versioning" `Quick test_wire_versioning;
          Alcotest.test_case "versioned vector frames" `Quick
            test_wire_versioned_vectors;
        ] );
      ( "service",
        [
          test_service_dup_corrupt;
          Alcotest.test_case "dup replies cached" `Quick
            test_service_dup_replies_cached;
          Alcotest.test_case "gap and stale rejected" `Quick
            test_service_rejects_gap_and_stale;
          Alcotest.test_case "rejected batch changes nothing" `Quick
            test_service_rejected_batch_atomic;
        ] );
      ( "churn",
        [
          Alcotest.test_case "reshard across epochs" `Quick
            test_service_churn_reshard;
          test_service_churn_random;
        ] );
      ("socket", [ Alcotest.test_case "daemon round trip" `Quick
                     test_socket_roundtrip ]);
    ]
