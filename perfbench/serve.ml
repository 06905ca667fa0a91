(* The serve workloads: the real [synts serve] binary as the daemon, one
   generator connection in this process, and the in-process replay of
   the same request bytes for the per-layer breakdown. *)

module Decomposition = Synts_graph.Decomposition
module Online = Synts_core.Online
module Wire = Synts_clock.Wire
module Ingest = Synts_ingest.Ingest
module Server = Synts_server.Server
module Client = Synts_server.Client
module Protocol = Synts_server.Protocol
module Frame = Synts_server.Frame
module Service = Synts_server.Service
module Engine = Synts_server.Engine
module Event_stream = Synts_core.Event_stream
open Probe

type config = {
  topo : string;
  batch : int;  (* events per Observe *)
  check : bool;  (* daemon runs with --check; episodes end in Verify *)
  episode_batches : int;
      (* batches per daemon lifetime. A daemon's GC state, which sets
         the tail latency, differs from one daemon to the next; a run
         serves many so that it does not hang on one. *)
  trace_batches : int;  (* batches in each traced pass *)
}

(* ---------- daemons ---------- *)

(* Paths relative to the root of the source tree, where run.sh starts
   perfbench.exe after building the daemon there. *)
let synts = "_build/default/bin/main.exe"
let run_dir = ".perfbench_run"
let live = ref []  (* pids of daemons not yet reaped *)
let instances = ref 0

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    !live;
  List.iter reap !live

type daemon = { pid : int; address : Server.address }

(* Start [synts serve] and return once its socket exists. *)
let spawn cfg =
  incr instances;
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf "%s/%d-%d.sock" run_dir (Unix.getpid ()) !instances in
  let args =
    Array.of_list
      ([ synts; "serve"; cfg.topo; "--listen"; path ]
      @ if cfg.check then [ "--check" ] else [])
  in
  let log = Unix.openfile (Filename.concat run_dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process synts args Unix.stdin log log in
  Unix.close log;
  live := pid :: !live;
  let deadline = now_ns () + 60_000_000_000 in
  while not (Sys.file_exists path) do
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith "synts serve exited before listening");
    if now_ns () > deadline then failwith "synts serve did not start";
    Unix.sleepf 0.0002
  done;
  { pid; address = Server.Unix_socket path }

(* The socket exists from bind(); connect() is refused until listen(). *)
let rec connect_retry f tries =
  try f ()
  with Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
    Unix.sleepf 0.0002;
    connect_retry f (tries - 1)

let connect d = connect_retry (fun () -> Client.connect d.address) 5000

let connect_raw d =
  let path = match d.address with Server.Unix_socket p -> p | Tcp _ -> assert false in
  connect_retry
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      with e ->
        Unix.close fd;
        raise e)
    5000

let shutdown d c =
  (try Client.shutdown c
   with Failure _ | Unix.Unix_error _ -> (
     Client.close c;
     try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  reap d.pid

(* The daemon keeps at most [pending_cap] resolved internal stamps
   (the default of [Engine.create], which [synts serve] uses) and drops
   the oldest beyond it. Every internal event resolves to one stamp, so
   a client that sends Drain once the internal events sent since the
   last Drain reach half the cap never loses one, and drains no more
   often than that needs. *)
let pending_cap = 65_536
let drain_at = pending_cap / 2

let decomposition cfg =
  match Synts_graph.Topology.spec_of_string cfg.topo with
  | Ok spec -> Decomposition.best (Synts_graph.Topology.build spec)
  | Error e -> failwith e

(* ---------- end-to-end run ---------- *)

let resolved_count r rpc =
  Report.attempt r;
  match rpc () with
  | resolved -> resolved
  | exception Failure e ->
      Report.fail r "resolve request: %s" e;
      []

(* One daemon lifetime: [episode_batches] Observe calls, with a Drain
   whenever [drain_at] internal events were sent since the last one;
   then, untimed, Finish, Stats, the optional Verify, the daemon's peak
   memory (after a fixed amount of work, so it does not grow with how
   far a run got) and the oracle replay. *)
let episode cfg d gen r ~setups ~m ~hwm =
  let t_setup = now_ns () in
  let dmn = spawn cfg in
  let c = connect dmn in
  let setup = float_of_int (now_ns () - t_setup) /. 1e9 in
  push setups (setup *. host_factor ());
  Fun.protect
    ~finally:(fun () -> if List.mem dmn.pid !live then shutdown dmn c)
    (fun () ->
      Report.check r
        (Client.processes c = Decomposition.graph_vertices d
        && Client.dimension c = max 1 (Decomposition.size d))
        "daemon layout differs from the benchmark's decomposition";
      let replay = Stream.copy gen in
      let digest = ref Stream.digest0 in
      let internal = ref 0 and undrained = ref 0 and resolved = Stream.tickets () in
      let batches = ref 0 in
      (* CPU of both processes, read at window edges. *)
      let cpu_now () = pid_cpu_ns dmn.pid + cpu_ns () in
      let mark = ref (cpu_now ()) in
      let close_window () =
        let c = cpu_now () in
        close m ~cpu:(c - !mark);
        mark := cpu_now ()
      in
      let last = ref (now_ns ()) in
      while !batches < cfg.episode_batches do
        let events = Stream.batch gen cfg.batch in
        let k = Stream.internal_count events in
        internal := !internal + k;
        undrained := !undrained + k;
        Report.attempt r;
        let t0 = now_ns () in
        let latency =
          match Client.observe_batch c events with
          | outcomes ->
              let t1 = now_ns () in
              digest := Stream.fold_outcomes !digest outcomes;
              Some (float_of_int (t1 - t0) /. 1e6)
          | exception Failure e ->
              Report.fail r "observe: %s" e;
              None
        in
        incr batches;
        if !undrained >= drain_at then begin
          Stream.tally resolved (resolved_count r (fun () -> Client.drain c));
          undrained := 0
        end;
        let t = now_ns () in
        record m ~events:cfg.batch ~ns:(t - !last) ~cpu:0 latency;
        last := t;
        if full m then begin
          close_window ();
          last := now_ns ()
        end
      done;
      close_window ();
      Stream.tally resolved (resolved_count r (fun () -> Client.finish c));
      Report.attempt r;
      (match Client.server_stats c with
      | Ok s ->
          Report.fail_n r s.dropped "%d resolved stamps dropped" s.dropped;
          Report.check r (s.pending = 0) "%d stamps still pending after Finish" s.pending
      | Error e -> Report.fail r "stats: %s" e);
      if cfg.check then begin
        Report.attempt r;
        match Client.verify_server c with
        | Ok (true, _) -> ()
        | Ok (false, n) -> Report.fail r "Verify rejected the stream (%d checked)" n
        | Error e -> Report.fail r "verify: %s" e
      end;
      push hwm (vm_hwm_mib dmn.pid);
      shutdown dmn c;
      (* Oracle: the same batches through the single-domain stamper. *)
      let oracle = Online.stamper d in
      let expect = ref Stream.digest0 in
      for _ = 1 to !batches do
        expect := Stream.oracle_digest oracle !expect (Stream.batch replay cfg.batch)
      done;
      Report.check r (!expect = !digest) "stamp digest differs from Online.stamper";
      Stream.check_tickets r ~internal:!internal resolved)

let extra_setups = 20

let run cfg ~seed ~seconds r =
  let d = decomposition cfg in
  let gen = Stream.create ~seed d in
  let setups = samples () and hwm = samples () in
  (* With --check, one window per episode: the check log, and with it
     the per-call cost, grows within an episode. *)
  let m = meter ?size:(if cfg.check then Some max_int else None) () in
  let budget = int_of_float (seconds *. 1e9) in
  let steal = steal_acc () in
  (* Set-up alone, a few times; every timed daemon adds one more. *)
  for _ = 1 to extra_setups do
    let t0 = now_ns () in
    let dmn = spawn cfg in
    let c = connect dmn in
    let setup = float_of_int (now_ns () - t0) /. 1e9 in
    push setups (setup *. host_factor ());
    shutdown dmn c
  done;
  with_steal steal (fun () ->
      while m.ns < budget do
        episode cfg d gen r ~setups ~m ~hwm
      done);
  report_e2e r m ~setups ~peak_mem:(median (to_array hwm));
  Report.line r "%s" (describe m);
  Report.line r "# samples: %d Observe calls, %d windows, %d set-ups, %d daemons; %d events in %.2f s"
    m.lat.len (rated m) setups.len hwm.len m.events (float_of_int m.ns /. 1e9);
  steal

(* ---------- traced run ---------- *)

(* Client side over the real socket: a span for each codec call
   [Client] makes, and the round trip from [Frame.send] to the end of
   [Frame.recv]. *)
type client_spans = {
  encode : span;
  frame : span;
  unframe : span;
  decode : span;
  mutable round_trip_ns : int;
}

let client_spans () =
  {
    encode = span "client.encode";
    frame = span "wire.frame";
    unframe = span "wire.unframe";
    decode = span "client.decode";
    round_trip_ns = 0;
  }

let recv_frame fd =
  match Frame.recv fd with `Frame f -> f | `Eof -> failwith "daemon closed"

let traced_call fd s req =
  let body = time s.encode (fun () -> Protocol.encode_request req) in
  let framed = time s.frame (fun () -> Wire.frame body) in
  let t0 = now_ns () in
  Frame.send fd framed;
  let raw = recv_frame fd in
  s.round_trip_ns <- s.round_trip_ns + (now_ns () - t0);
  match time s.unframe (fun () -> Wire.unframe raw) with
  | Error e -> failwith e
  | Ok body -> (
      match time s.decode (fun () -> Protocol.decode_response body) with
      | Ok resp -> resp
      | Error e -> failwith e)

(* The request sequence both traced passes send: Hello, then Observe
   batches with a Drain by the rule of the timed run, then Finish. *)
let requests cfg gen =
  let out = ref [ Protocol.Hello ] and undrained = ref 0 in
  for seq = 0 to cfg.trace_batches - 1 do
    let events = Stream.batch gen cfg.batch in
    out := Protocol.Observe { seq; events } :: !out;
    undrained := !undrained + Stream.internal_count events;
    if !undrained >= drain_at then begin
      out := Protocol.Drain :: !out;
      undrained := 0
    end
  done;
  Array.of_list (List.rev (Protocol.Finish :: !out))

let events_of reqs =
  Array.fold_left
    (fun k -> function Protocol.Observe { events; _ } -> k + Array.length events | _ -> k)
    0 reqs

let socket_pass cfg reqs r =
  let s = client_spans () in
  let dmn = spawn cfg in
  let fd = connect_raw dmn in
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      (* Untimed, so the spans hold the listed requests only. *)
      (try
         Frame.send fd (Wire.frame (Protocol.encode_request Protocol.Shutdown));
         ignore (recv_frame fd)
       with _ -> ());
      Unix.close fd;
      reap dmn.pid)
    (fun () ->
      let digest =
        Array.fold_left
          (fun h req ->
            Report.attempt r;
            match traced_call fd s req with
            | Protocol.Outcomes o -> Stream.fold_outcomes h o
            | Protocol.Error_r e ->
                Report.fail r "traced socket pass: %s" e;
                h
            | _ -> h)
          Stream.digest0 reqs
      in
      (s, now_ns () - t0, digest))

(* The server side in process, on a socketpair: the calls
   [Service.handle_raw] and the daemon's select loop compose, one span
   each, a shadow [Engine] fed the same batches, beside it the
   [Event_stream] calls the engine makes inside [observe_batch] and
   [finish], and a second service timed through [handle_raw] as a whole
   on the same bytes. *)
type server_spans = {
  read : span;  (* server Unix.read + Frame.feed/next, client Frame.recv *)
  write : span;  (* Frame.send on both ends *)
  s_unframe : span;
  s_decode : span;
  handle : span;
  engine : span;
  drain : span;
  events : span;  (* shadow Event_stream: records per batch, and finish *)
  mutable events_in_drain : int;  (* the part of [events] inside Engine.finish *)
  s_encode : span;
  s_frame : span;
  raw : span;  (* Service.handle_raw on the twin service *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable reply_max : int;
  mutable drained : int;
  mutable pending_max : int;
  mutable digest : int;
}

let replay_pass cfg d reqs r =
  let s =
    {
      read = span "frame.read";
      write = span "frame.write";
      s_unframe = span "wire.unframe";
      s_decode = span "protocol.decode";
      handle = span "service.handle";
      engine = span "engine.sweep";
      drain = span "engine.drain";
      events = span "event_stream";
      events_in_drain = 0;
      s_encode = span "protocol.encode";
      s_frame = span "wire.frame";
      raw = span "handle_raw";
      bytes_in = 0;
      bytes_out = 0;
      reply_max = 0;
      drained = 0;
      pending_max = 0;
      digest = Stream.digest0;
    }
  in
  let svc = Service.create ~check:cfg.check d and twin = Service.create ~check:cfg.check d in
  let conn = Service.attach svc and twin_conn = Service.attach twin in
  let shadow = Engine.create d in
  let new_stream () =
    Event_stream.create ~dimension:(max 1 (Decomposition.size d)) ~n:(Decomposition.graph_vertices d)
  in
  let es = ref (new_stream ()) in
  let cfd, sfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* One thread writes each reply before it reads it back, so a reply
     must fit in the socket's send buffer. Ask for a large one; a reply
     that would still block fails the run rather than hang it. *)
  Unix.setsockopt_int sfd Unix.SO_SNDBUF (4 lsl 20);
  let reply_room = Unix.getsockopt_int sfd Unix.SO_SNDBUF / 2 in
  let buf = Frame.buffer () and scratch = Bytes.create 65536 in
  let rec server_read () =
    match Frame.next buf with
    | Some f -> f
    | None ->
        let n = Unix.read sfd scratch 0 (Bytes.length scratch) in
        if n = 0 then failwith "socketpair closed";
        Frame.feed buf scratch n;
        server_read ()
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close cfd;
      Unix.close sfd;
      Service.stop svc;
      Service.stop twin;
      Engine.stop shadow)
    (fun () ->
      Array.iter
        (fun req ->
          let framed = Wire.frame (Protocol.encode_request req) in
          s.bytes_in <- s.bytes_in + 4 + String.length framed;
          time s.write (fun () -> Frame.send cfd framed);
          let raw = time s.read server_read in
          let body =
            match time s.s_unframe (fun () -> Wire.unframe raw) with
            | Ok b -> b
            | Error e -> failwith e
          in
          let req' =
            match time s.s_decode (fun () -> Protocol.decode_request body) with
            | Ok q -> q
            | Error e -> failwith e
          in
          (match req' with
          | Protocol.Drain | Protocol.Finish ->
              s.pending_max <- max s.pending_max (Service.pending svc)
          | _ -> ());
          let resp = time s.handle (fun () -> Service.handle svc conn req') in
          (match req' with
          | Protocol.Observe { events; _ } ->
              let out = time s.engine (fun () -> Engine.observe_batch shadow events) in
              time s.events (fun () ->
                  Array.iteri
                    (fun i ev ->
                      match (ev, out.(i)) with
                      | Ingest.Internal { proc }, _ ->
                          ignore (Event_stream.record_internal !es ~proc)
                      | Ingest.Message { src; dst }, Ingest.Stamped v ->
                          ignore (Event_stream.record_message !es ~proc:src v);
                          ignore (Event_stream.record_message !es ~proc:dst v)
                      | Ingest.Message _, Ingest.Deferred _ -> ())
                    events)
          | Protocol.Drain ->
              s.drained <- s.drained + List.length (time s.drain (fun () -> Engine.drain shadow))
          | Protocol.Finish ->
              s.drained <- s.drained + List.length (time s.drain (fun () -> Engine.finish shadow));
              let before = s.events.ns in
              time s.events (fun () ->
                  ignore (Event_stream.finish !es);
                  es := new_stream ());
              s.events_in_drain <- s.events_in_drain + (s.events.ns - before)
          | _ -> ());
          let out = time s.s_encode (fun () -> Protocol.encode_response resp) in
          let reply = time s.s_frame (fun () -> Wire.frame out) in
          s.bytes_out <- s.bytes_out + 4 + String.length reply;
          s.reply_max <- max s.reply_max (4 + String.length reply);
          if 4 + String.length reply > reply_room then
            failwith
              (Printf.sprintf "a %d-byte reply exceeds the %d bytes the socketpair holds"
                 (4 + String.length reply) reply_room);
          time s.write (fun () -> Frame.send sfd reply);
          let back =
            time s.read (fun () ->
                match Frame.recv cfd with `Frame f -> f | `Eof -> failwith "eof")
          in
          let whole = time s.raw (fun () -> Service.handle_raw twin twin_conn raw) in
          Report.attempt r;
          Report.check r (whole = reply && back = reply)
            "composed layers and handle_raw answered differently";
          match resp with
          | Protocol.Outcomes o -> s.digest <- Stream.fold_outcomes s.digest o
          | Protocol.Error_r e -> Report.fail r "replay: %s" e
          | _ -> ())
        reqs;
      s)

let trace cfg ~seed r =
  let d = decomposition cfg in
  let reqs = requests cfg (Stream.create ~seed d) in
  let events = events_of reqs in
  let calls = Array.length reqs in
  let gc0 = Gc.quick_stat () in
  let c, socket_ns, socket_digest = socket_pass cfg reqs r in
  let s = replay_pass cfg d reqs r in
  report_heap r gc0 ~events;
  let oracle = Online.stamper d in
  let expect =
    Array.fold_left
      (fun h -> function
        | Protocol.Observe { events; _ } -> Stream.oracle_digest oracle h events
        | _ -> h)
      Stream.digest0 reqs
  in
  Report.check r (socket_digest = expect) "socket stamps differ from Online.stamper";
  Report.check r (s.digest = expect) "replayed stamps differ from Online.stamper";
  let ev sp = ns_per sp events and call sp = ns_per sp calls in
  let self_handle = s.handle.ns - s.engine.ns - s.drain.ns in
  (* Engine self times: the shadow engine less its Event_stream calls. *)
  let self_sweep = s.engine.ns - (s.events.ns - s.events_in_drain)
  and self_drain = s.drain.ns - s.events_in_drain in
  let server_gc = gc_of [ s.s_unframe; s.s_decode; s.handle; s.s_encode; s.s_frame ] in
  let server_layers =
    [
      ("wire.unframe", s.s_unframe.ns);
      ("protocol.decode", s.s_decode.ns);
      ("service.handle", self_handle);
      ("engine.sweep", self_sweep);
      ("event_stream", s.events.ns);
      ("engine.drain", self_drain);
      ("protocol.encode", s.s_encode.ns);
      ("wire.frame", s.s_frame.ns);
      ("runtime.gc", server_gc);
    ]
  in
  let server_ns = wall s.raw in
  let covered = List.fold_left (fun acc (_, ns) -> acc + ns) 0 server_layers in
  let coverage = float_of_int covered /. float_of_int server_ns in
  let wait = float_of_int (c.round_trip_ns - server_ns) /. float_of_int calls in
  let m = Report.metric r in
  m "transport.wait_ns_per_call" "ns" wait;
  m "frame.read_ns_per_call" "ns" (call s.read);
  m "frame.write_ns_per_call" "ns" (call s.write);
  m "protocol.encode_ns_per_event" "ns" (ev s.s_encode);
  m "protocol.decode_ns_per_event" "ns" (ev s.s_decode);
  m "client.encode_ns_per_event" "ns" (ev c.encode);
  m "client.decode_ns_per_event" "ns" (ev c.decode);
  m "wire.frame_ns_per_event" "ns" (per (float_of_int (s.s_frame.ns + c.frame.ns)) events);
  m "wire.unframe_ns_per_event" "ns" (per (float_of_int (s.s_unframe.ns + c.unframe.ns)) events);
  m "protocol.bytes_in_per_event" "B" (per (float_of_int s.bytes_in) events);
  m "protocol.bytes_out_per_event" "B" (per (float_of_int s.bytes_out) events);
  m "engine.sweep_ns_per_event" "ns" (per (float_of_int self_sweep) events);
  m "engine.drain_ns_per_stamp" "ns" (per (float_of_int self_drain) s.drained);
  m "engine.pending_max" "count" (float_of_int s.pending_max);
  m "service.handle_ns_per_event" "ns" (per (float_of_int self_handle) events);
  m "event_stream.ns_per_event" "ns" (ev s.events);
  m "server.handle_raw_ns_per_event" "ns" (per (float_of_int server_ns) events);
  m "runtime.gc_ns_per_event" "ns" (per (float_of_int server_gc) events);
  m "serve.layer_coverage" "ratio" coverage;
  check_coverage r coverage;
  let words sps = per (List.fold_left (fun a sp -> a +. sp.minor_words) 0. sps) events in
  m "client.minor_words_per_event" "words" (words [ c.encode; c.decode ]);
  m "protocol.minor_words_per_event" "words" (words [ s.s_encode; s.s_decode ]);
  m "service.minor_words_per_event" "words"
    (words [ s.handle ] -. words [ s.engine; s.drain ]);
  m "engine.minor_words_per_event" "words" (words [ s.engine; s.drain ] -. words [ s.events ]);
  m "traced.events_per_s" "1/s" (float_of_int events *. 1e9 /. float_of_int socket_ns);
  (* The breakdown, largest first: server layers as shares of
     in-process server time; client layers and the wait beside them. *)
  let client_layers =
    [
      ("frame.read", s.read.ns);
      ("frame.write", s.write.ns);
      ("client.encode", c.encode.ns);
      ("client.decode", c.decode.ns);
      ("client wire.frame", c.frame.ns);
      ("client wire.unframe", c.unframe.ns);
      ("transport.wait", int_of_float (wait *. float_of_int calls));
    ]
  in
  let by_size = List.sort (fun (_, a) (_, b) -> compare b a) in
  Report.line r
    "# traced: %d requests, %d events, largest reply %d B; in-process server time (handle_raw) %.0f ns/event, layer coverage %.3f"
    calls events s.reply_max (per (float_of_int server_ns) events) coverage;
  List.iter
    (fun (name, ns) ->
      Report.line r "#   %-20s %10.1f ns/event %6.1f%% of server time" name
        (per (float_of_int ns) events)
        (100. *. float_of_int ns /. float_of_int server_ns))
    (by_size server_layers);
  List.iter
    (fun (name, ns) ->
      Report.line r "#   %-20s %10.1f ns/event (outside server time)" name
        (per (float_of_int ns) events))
    (by_size client_layers);
  Report.line r "# largest server layer: %s; largest layer overall: %s"
    (fst (List.hd (by_size server_layers)))
    (fst (List.hd (by_size (server_layers @ client_layers))))
