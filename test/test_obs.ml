module Topology = Synts_graph.Topology
module Decomposition = Synts_graph.Decomposition
module Trace = Synts_sync.Trace
module Wire = Synts_clock.Wire
module Ingest = Synts_ingest.Ingest
module Telemetry = Synts_telemetry.Telemetry
module Log = Synts_obs.Log
module Admin = Synts_obs.Admin
module Engine = Synts_server.Engine
module Service = Synts_server.Service
module Admin_service = Synts_server.Admin_service
module Protocol = Synts_server.Protocol
module Injector = Synts_fault.Injector
module Plan = Synts_fault.Plan
module Gen = Synts_test_support.Gen

let qtest ?(count = 100) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

let events_of_trace trace =
  Array.of_list (List.map Ingest.event_of_step (Trace.steps trace))

(* ---------- structured log records ---------- *)

let test_log_render_text () =
  Alcotest.(check string) "text line"
    "[WARN] tick=7 engine: queue full cap=65536 dropped=3"
    (Log.render_text Log.Warn ~tick:7 ~component:"engine"
       ~kv:[ ("cap", "65536"); ("dropped", "3") ]
       "queue full")

let test_log_render_jsonl () =
  Alcotest.(check string) "jsonl line"
    "{\"level\": \"info\", \"tick\": 3, \"component\": \"server\", \"msg\": \
     \"said \\\"hi\\\"\", \"batches\": \"2\"}"
    (Log.render_jsonl Log.Info ~tick:3 ~component:"server"
       ~kv:[ ("batches", "2") ]
       "said \"hi\"")

(* Severity filtering and the monotone default tick, observed through a
   custom sink. Defaults are restored so other tests keep stderr text. *)
let test_log_filtering () =
  let lines = ref [] in
  Log.set_sink (Custom (fun l -> lines := l :: !lines));
  Log.set_level Log.Warn;
  Fun.protect
    ~finally:(fun () ->
      Log.set_level Log.Info;
      Log.set_sink (Text stderr))
    (fun () ->
      let before = Log.records () in
      Log.info ~component:"x" "dropped by level";
      Log.warn ~component:"x" ~tick:1 "kept";
      Log.error ~component:"y" "kept too";
      Alcotest.(check int) "two records" (before + 2) (Log.records ());
      Alcotest.(check int) "two lines" 2 (List.length !lines);
      Alcotest.(check bool) "filtered out" false
        (List.exists
           (fun l ->
             let n = String.length "dropped by level" in
             let m = String.length l in
             let rec at i =
               (i + n <= m && String.sub l i n = "dropped by level")
               || (i + n <= m && at (i + 1))
             in
             at 0)
           !lines))

(* ---------- admin codec ---------- *)

let request_gen =
  QCheck2.Gen.oneofl
    [
      Admin.Health;
      Admin.Metrics Admin.Prom;
      Admin.Metrics Admin.Json;
      Admin.Stats;
      Admin.Tracedump;
    ]

(* Finite floats only: the 8-byte BE IEEE encoding roundtrips any bits,
   but structural equality on NaN would be vacuously false. *)
let qfloat =
  QCheck2.Gen.(map (fun i -> float_of_int i /. 16.) (int_bound 100000))

let conn_stat_gen =
  QCheck2.Gen.(
    map2
      (fun (conn, events_in, stamps_out) (dedup_hits, last_seq) ->
        { Admin.conn; events_in; stamps_out; dedup_hits; last_seq })
      (triple (int_bound 64) (int_bound 10000) (int_bound 10000))
      (pair (int_bound 100) (int_range (-1) 10000)))

let stream_stat_gen =
  QCheck2.Gen.(
    map2
      (fun (chains, live, retired) (width, exact, repairs) ->
        { Admin.chains; live; retired; width; exact; repairs })
      (triple (int_bound 100) (int_bound 1000) (int_bound 1000))
      (triple (int_bound 100) bool (int_bound 50)))

let stats_gen =
  QCheck2.Gen.(
    map
      (fun ( (backend, clients, batches, messages),
             (internal, dedup_hits, errors, dropped),
             (pending, p50_ms, p90_ms, p99_ms),
             (conns, stream) ) ->
        {
          Admin.backend;
          clients;
          batches;
          messages;
          internal;
          dedup_hits;
          errors;
          dropped;
          pending;
          p50_ms;
          p90_ms;
          p99_ms;
          conns;
          stream;
        })
      (quad
         (quad (string_size (int_bound 12)) (int_bound 64) (int_bound 10000)
            (int_bound 10000))
         (quad (int_bound 10000) (int_bound 100) (int_bound 100)
            (int_bound 100))
         (quad (int_bound 10000) qfloat qfloat qfloat)
         (pair
            (list_size (int_bound 4) conn_stat_gen)
            (option stream_stat_gen))))

let response_gen =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun (ok, processes, dimension) backend ->
            Admin.Health_r { ok; backend; processes; dimension })
          (triple bool (int_bound 1000) (int_bound 100))
          (string_size (int_bound 12));
        map (fun s -> Admin.Metrics_r s) (string_size (int_bound 64));
        map (fun s -> Admin.Stats_r s) stats_gen;
        map2
          (fun (dropped, spans) jsonl ->
            Admin.Tracedump_r { dropped; spans; jsonl })
          (pair (int_bound 100) (int_bound 1000))
          (string_size (int_bound 64));
        map (fun e -> Admin.Error_r e) (string_size (int_bound 40));
      ])

let test_request_roundtrip =
  qtest ~count:100 "admin request codec roundtrips" request_gen
    (Format.asprintf "%a" Admin.pp_request) (fun req ->
      Admin.decode_request (Admin.encode_request req) = Ok req)

let test_response_roundtrip =
  qtest ~count:300 "admin response codec roundtrips" response_gen
    (Format.asprintf "%a" Admin.pp_response) (fun resp ->
      Admin.decode_response (Admin.encode_response resp) = Ok resp)

(* The family header: data-plane bodies, older family versions (v1
   carried per-shard fields) and future ones are rejected with a decode
   error, not misparsed. *)
let test_family_rejection () =
  (match Admin.decode_request (Protocol.encode_request Protocol.Stats) with
  | Error _ -> ()
  | Ok r ->
      Alcotest.fail
        (Format.asprintf "data-plane body decoded as %a" Admin.pp_request r));
  let at version =
    let b = Bytes.of_string (Admin.encode_request Admin.Health) in
    Bytes.set b 1 (Char.chr version);
    Bytes.to_string b
  in
  (match Admin.decode_request (at (Admin.current_version + 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version accepted");
  match Admin.decode_request (at 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "v1 frame accepted"

(* ---------- engine telemetry ---------- *)

let run_engine ~batch events d =
  let e = Engine.create d in
  let total = Array.length events in
  let off = ref 0 in
  while !off < total do
    let len = min batch (total - !off) in
    ignore (Engine.observe_batch e (Array.sub events !off len));
    off := !off + len
  done;
  ignore (Engine.finish e);
  Engine.telemetry_snapshot e

let faulty_gen = QCheck2.Gen.pair Gen.computation Gen.rng_seed

let faulty_print (c, seed) =
  Printf.sprintf "%s inj_seed=%d" (Gen.computation_print c) seed

(* The byte-level service path with a fault injector duplicating and
   corrupting deliveries in 9-event batches: seq dedup and the wire
   checksum keep the engine's effective stream clean, so its registry
   equals a clean engine's fed the same events in 1024-event batches. *)
let test_snapshot_under_faults =
  qtest ~count:25 "engine registry under dup/corrupt" faulty_gen
    faulty_print (fun (c, seed) ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let events = events_of_trace trace in
      let clean = run_engine ~batch:1024 events d in
      let service = Service.create d in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          let conn = Service.attach service in
          let inj =
            Injector.create ~seed
              [ Plan.Duplicate { prob = 0.3 }; Plan.Corrupt { prob = 0.3 } ]
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
          let total = Array.length events in
          let seq = ref 0 and off = ref 0 in
          while !off < total do
            let len = min 9 (total - !off) in
            let req =
              Protocol.Observe
                { seq = !seq; events = Array.sub events !off len }
            in
            let raw = Wire.frame (Protocol.encode_request req) in
            let rec attempt tries =
              if tries > 64 then failwith "no progress against injector";
              match decode (deliver raw) with
              | Protocol.Outcomes _ -> ()
              | Protocol.Error_r _ -> attempt (tries + 1)
              | other ->
                  Format.kasprintf failwith "unexpected %a"
                    Protocol.pp_response other
            in
            attempt 0;
            incr seq;
            off := !off + len
          done;
          match Service.backend service with
          | Service.Online e -> Engine.telemetry_snapshot e = clean
          | Service.Offline_stream _ -> false))

(* The admin [metrics] view lists the process registry, the service's
   and the engine's side by side; no name may appear twice, on either
   backend. *)
let test_metrics_names_unique () =
  let d = Decomposition.best (Topology.ring 5) in
  List.iter
    (fun offline ->
      let service = Service.create ~offline d in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          let conn = Service.attach service in
          ignore
            (Service.handle service conn
               (Protocol.Observe
                  {
                    seq = 0;
                    events =
                      [|
                        Ingest.Message { src = 0; dst = 1 };
                        Ingest.Internal { proc = 2 };
                      |];
                  }));
          let names = List.map fst (Admin_service.snapshot service) in
          Alcotest.(check (list string))
            (if offline then "offline" else "online")
            (List.sort_uniq String.compare names)
            names))
    [ false; true ]

let () =
  Alcotest.run "obs"
    [
      ( "log",
        [
          Alcotest.test_case "text rendering" `Quick test_log_render_text;
          Alcotest.test_case "jsonl rendering" `Quick test_log_render_jsonl;
          Alcotest.test_case "level filter + ticks" `Quick test_log_filtering;
        ] );
      ( "admin codec",
        [
          test_request_roundtrip;
          test_response_roundtrip;
          Alcotest.test_case "family header rejection" `Quick
            test_family_rejection;
        ] );
      ( "telemetry",
        [
          test_snapshot_under_faults;
          Alcotest.test_case "metrics view names are unique" `Quick
            test_metrics_names_unique;
        ] );
    ]
