(* The in-process workloads: [Session.observe] in fixed-length episodes,
   and the streaming offline sink behind [synts serve --offline]. *)

module Graph = Synts_graph.Graph
module Topology = Synts_graph.Topology
module Decomposition = Synts_graph.Decomposition
module Online = Synts_core.Online
module Offline = Synts_core.Offline
module Event_stream = Synts_core.Event_stream
module Ingest = Synts_ingest.Ingest
module Offline_sink = Synts_ingest.Offline_sink
module Session = Synts_session.Session
module Frontier = Synts_monitor.Frontier
module Stats = Synts_monitor.Stats
module Incremental_width = Synts_poset.Incremental_width
open Probe

let spec topo =
  match Topology.spec_of_string topo with Ok s -> s | Error e -> failwith e

(* In-process peak memory is read once the timed phase has done
   [mem_after] events, so it does not grow with how far a run got. *)
type timer = { m : meter; mem_after : int; mutable peak_mem : float }

let timer ?window ~mem_after () = { m = meter ?size:window (); mem_after; peak_mem = Float.nan }

(* A timed call: wall and CPU nanoseconds, and a latency sample unless
   [call] is false (work that is timed but is not the workload's call).
   An in-process call never blocks, so its latency is the CPU time it
   ran: wall time would add the stalls in which the hypervisor ran
   another guest (up to 16% of a run's ticks on a 2-vCPU Xeon VM), and
   those stalls set the wall-clock p99. *)
let timed ?(call = true) t ~events f =
  let c0 = cpu_ns () in
  let t0 = now_ns () in
  let x = f () in
  let t1 = now_ns () in
  let cpu = cpu_ns () - c0 in
  let latency = if call then Some (float_of_int cpu /. 1e6) else None in
  record t.m ~events ~ns:(t1 - t0) ~cpu latency;
  if full t.m then close t.m;
  if Float.is_nan t.peak_mem && t.m.events + t.m.w_events >= t.mem_after then
    t.peak_mem <- vm_hwm_mib 0;
  x

let finish_e2e r t ~setups ~what =
  close t.m;
  let peak_mem = if Float.is_nan t.peak_mem then vm_hwm_mib 0 else t.peak_mem in
  report_e2e r t.m ~setups ~peak_mem;
  Report.line r "%s" (describe t.m);
  Report.line r "# samples: %d %s calls, %d windows, %d set-ups; %d events in %.2f s of calls"
    t.m.lat.len what (rated t.m) setups.len t.m.events (float_of_int t.m.ns /. 1e9)

(* The traced breakdown, largest layer first, as shares of the whole
   call timed on the same stream. *)
let breakdown r ~whole ~total ~gc ~coverage layers =
  let base = float_of_int (wall whole) in
  Report.line r "# traced: %d events, %s %.0f ns/event, layer coverage %.3f" total
    whole.name (per base total) coverage;
  let rows =
    List.sort (fun (_, a) (_, b) -> compare b a)
      (("runtime.gc", gc) :: List.map (fun sp -> (sp.name, sp.ns)) layers)
  in
  List.iter
    (fun (name, ns) ->
      Report.line r "#   %-24s %10.1f ns/event %6.1f%% of %s" name
        (per (float_of_int ns) total) (100. *. float_of_int ns /. base) whole.name)
    rows;
  Report.line r "# largest layer: %s" (fst (List.hd rows));
  check_coverage r coverage

(* ---------- session-observe ---------- *)

type session_config = {
  s_topo : string;
  episode : int;
  trace_episodes : int;
  s_mem_after : int;  (* timed events before peak memory is read *)
}

(* What a user pays before the first event. *)
let new_session topo =
  let d = Decomposition.best (Topology.build (spec topo)) in
  (d, Session.of_decomposition d)

let session_episode cfg gen r t =
  let replay = Stream.copy gen in
  let t0 = now_ns () in
  let d, s = new_session cfg.s_topo in
  let setup = float_of_int (now_ns () - t0) /. 1e9 in
  let setup = setup *. host_factor () in
  let digest = ref Stream.digest0 and internal = ref 0 in
  for _ = 1 to cfg.episode do
    let ev = Stream.event gen in
    Report.attempt r;
    match timed t ~events:1 (fun () -> Session.observe s ev) with
    | Ingest.Stamped v -> digest := Stream.fold_vector !digest v
    | Ingest.Deferred _ -> incr internal
  done;
  let resolved = Stream.tickets () in
  Stream.tally resolved (timed ~call:false t ~events:0 (fun () -> Session.finish_events s));
  Stream.check_tickets r ~internal:!internal resolved;
  Report.check r (Session.dropped_events s = 0) "session dropped resolved stamps";
  let expect =
    Stream.oracle_digest (Online.stamper d) Stream.digest0
      (Array.init cfg.episode (fun _ -> Stream.event replay))
  in
  Report.check r (expect = !digest) "session stamps differ from Online.stamper";
  setup

let session_run cfg ~seed ~seconds r =
  let d, _ = new_session cfg.s_topo in
  let gen = Stream.create ~seed d in
  (* One window per episode: the per-call cost grows within an episode,
     so a window must not cut one. *)
  let t = timer ~window:max_int ~mem_after:cfg.s_mem_after () and setups = samples () in
  let budget = int_of_float (seconds *. 1e9) in
  let steal = steal_acc () in
  with_steal steal (fun () ->
      while t.m.ns < budget do
        push setups (session_episode cfg gen r t);
        close t.m
      done);
  finish_e2e r t ~setups ~what:"Session.observe";
  steal

(* The session's layers, called from outside in the order
   [Session.observe] calls them, beside a real session fed the same
   events. *)
let session_trace cfg ~seed r =
  let d, _ = new_session cfg.s_topo in
  let gen = Stream.create ~seed d in
  let whole = span "Session.observe" and stamp = span "online.stamp"
  and frontier = span "frontier.insert" and stats = span "stats.observe"
  and width = span "incremental_width.add" and events = span "event_stream" in
  let msgs = ref 0 and total = ref 0 in
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  for _ = 1 to cfg.trace_episodes do
    let s = Session.of_decomposition d in
    let stamper = Online.stamper d and fr = Frontier.create ()
    and st = Stats.create () and iw = Incremental_width.create ()
    and es = Event_stream.create ~dimension:(max 1 (Decomposition.size d))
        ~n:(Decomposition.graph_vertices d)
    and last = Array.make (Decomposition.graph_vertices d) (-1) in
    let next_id = ref 0 in
    for _ = 1 to cfg.episode do
      let ev = Stream.event gen in
      incr total;
      Report.attempt r;
      let out = time whole (fun () -> Session.observe s ev) in
      match ev with
      | Ingest.Internal { proc } ->
          ignore (time events (fun () -> Event_stream.record_internal es ~proc))
      | Ingest.Message { src; dst } ->
          incr msgs;
          let id = !next_id in
          incr next_id;
          let v = time stamp (fun () -> stamper ~src ~dst) in
          ignore (time frontier (fun () -> Frontier.insert fr ~id v));
          time stats (fun () -> Stats.observe st v);
          let preds = List.filter (fun p -> p >= 0) [ last.(src); last.(dst) ] in
          ignore (time width (fun () -> Incremental_width.add iw ~preds));
          last.(src) <- id;
          last.(dst) <- id;
          ignore
            (time events (fun () ->
                 ignore (Event_stream.record_message es ~proc:src v);
                 Event_stream.record_message es ~proc:dst v));
          Report.check r (out = Ingest.Stamped v) "session and Online.stamper disagree"
    done;
    ignore (time whole (fun () -> Session.finish_events s));
    ignore (time events (fun () -> Event_stream.finish es))
  done;
  let elapsed = now_ns () - t0 in
  report_heap r gc0 ~events:!total;
  let layers = [ stamp; frontier; stats; width; events ] in
  let gc = gc_of layers in
  let covered = List.fold_left (fun a sp -> a + sp.ns) gc layers in
  let coverage = float_of_int covered /. float_of_int (wall whole) in
  let m = Report.metric r in
  m "online.stamp_ns_per_msg" "ns" (ns_per stamp !msgs);
  m "frontier.insert_ns_per_msg" "ns" (ns_per frontier !msgs);
  m "stats.observe_ns_per_msg" "ns" (ns_per stats !msgs);
  m "incremental_width.add_ns_per_msg" "ns" (ns_per width !msgs);
  m "event_stream.ns_per_event" "ns" (ns_per events !total);
  m "runtime.gc_ns_per_event" "ns" (per (float_of_int gc) !total);
  m "session.layer_coverage" "ratio" coverage;
  m "stats.minor_words_per_event" "words" (per stats.minor_words !total);
  m "incremental_width.minor_words_per_event" "words" (per width.minor_words !total);
  m "traced.events_per_s" "1/s" (float_of_int !total *. 1e9 /. float_of_int elapsed);
  breakdown r ~whole ~total:!total ~gc ~coverage layers

(* ---------- offline-stream ---------- *)

type offline_config = {
  o_topo : string;
  o_batch : int;
  warmup : int;  (* events before timing starts; > the live window *)
  trace_batches : int;
  o_mem_after : int;  (* timed events before peak memory is read *)
}

let offline_setups = 31

let new_sink topo =
  let g = Topology.build (spec topo) in
  Offline_sink.create ~n:(Graph.n g) ()

(* Order-equivalence gate: each streamed stamp is compared with earlier
   ones at these distances, and the verdict must match the exact Fig. 5
   stamps (Theorem 4) of the same two messages. *)
let ring = 1024
let distances = [ 1; 2; 7; 61; 500; 1023 ]

type gate = {
  oracle : src:int -> dst:int -> Synts_clock.Vector.t;
  streamed : Synts_clock.Vector.t array;
  exact : Synts_clock.Vector.t array;
  mutable seen : int;
}

let gate d =
  let z = Synts_clock.Vector.zero 1 in
  { oracle = Online.stamper d; streamed = Array.make ring z; exact = Array.make ring z; seen = 0 }

let gate_check g r events outcomes =
  Array.iteri
    (fun i ev ->
      match (ev, outcomes.(i)) with
      | Ingest.Message { src; dst }, Ingest.Stamped v ->
          let i = g.seen in
          let e = g.oracle ~src ~dst in
          g.streamed.(i mod ring) <- v;
          g.exact.(i mod ring) <- e;
          g.seen <- i + 1;
          let agree =
            List.for_all
              (fun k ->
                k > i
                ||
                let j = (i - k) mod ring in
                Offline.precedes g.streamed.(j) v = Online.precedes g.exact.(j) e
                && Offline.precedes v g.streamed.(j) = Online.precedes e g.exact.(j))
              distances
          in
          Report.check r agree "offline stamp %d orders differently from the exact stamps" i
      | Ingest.Message _, Ingest.Deferred _ -> Report.fail r "message answered with a ticket"
      | Ingest.Internal _, _ -> ())
    events

let offline_run cfg ~seed ~seconds r =
  let d = Decomposition.best (Topology.build (spec cfg.o_topo)) in
  let gen = Stream.create ~seed d in
  let setups = samples () in
  for _ = 1 to offline_setups do
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (new_sink cfg.o_topo));
    let setup = float_of_int (now_ns () - t0) /. 1e9 in
    push setups (setup *. host_factor ())
  done;
  let sink = new_sink cfg.o_topo in
  let g = gate d in
  let internal = ref 0 and resolved = Stream.tickets () in
  let feed ~measure =
    let events = Stream.batch gen cfg.o_batch in
    internal := !internal + Stream.internal_count events;
    Report.attempt r;
    let out = measure (fun () -> Offline_sink.observe_batch sink events) in
    gate_check g r events out;
    Stream.tally resolved (Offline_sink.drain sink)
  in
  for _ = 1 to cfg.warmup / cfg.o_batch do
    feed ~measure:(fun f -> f ())
  done;
  let t = timer ~mem_after:cfg.o_mem_after () in
  let budget = int_of_float (seconds *. 1e9) in
  let steal = steal_acc () in
  with_steal steal (fun () ->
      while t.m.ns + t.m.w_ns < budget do
        feed ~measure:(timed t ~events:cfg.o_batch)
      done);
  Stream.tally resolved (Offline_sink.finish sink);
  Stream.check_tickets r ~internal:!internal resolved;
  finish_e2e r t ~setups ~what:"Offline_sink.observe_batch";
  Report.line r "# gate: %d streamed stamps compared at distances %s" g.seen
    (String.concat "," (List.map string_of_int distances));
  steal

(* The sink's layers ([Offline.Stream.observe], the event stream)
   called from outside beside a real sink fed the same batches. *)
let offline_trace cfg ~seed r =
  let d = Decomposition.best (Topology.build (spec cfg.o_topo)) in
  let n = Decomposition.graph_vertices d in
  let gen = Stream.create ~seed d in
  let sink = new_sink cfg.o_topo in
  let stream = Offline.Stream.create ~n () and es = Event_stream.create ~dimension:1 ~n in
  let whole = span "Offline_sink.observe_batch" and observe = span "offline_stream.observe"
  and events = span "event_stream" in
  let msgs = ref 0 and total = ref 0 in
  let step ~traced =
    let batch = Stream.batch gen cfg.o_batch in
    let t sp f = if traced then time sp f else f () in
    Report.attempt r;
    let out = t whole (fun () -> Offline_sink.observe_batch sink batch) in
    ignore (Offline_sink.drain sink);
    Array.iteri
      (fun i ev ->
        if traced then incr total;
        match ev with
        | Ingest.Internal { proc } ->
            ignore (t events (fun () -> Event_stream.record_internal es ~proc))
        | Ingest.Message { src; dst } ->
            if traced then incr msgs;
            let v = t observe (fun () -> Offline.Stream.observe stream ~src ~dst) in
            ignore
              (t events (fun () ->
                   ignore (Event_stream.record_message es ~proc:src v);
                   Event_stream.record_message es ~proc:dst v));
            Report.check r (out.(i) = Ingest.Stamped v) "sink and Offline.Stream disagree")
      batch
  in
  for _ = 1 to cfg.warmup / cfg.o_batch do
    step ~traced:false
  done;
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  for _ = 1 to cfg.trace_batches do
    step ~traced:true
  done;
  let elapsed = now_ns () - t0 in
  report_heap r gc0 ~events:!total;
  let layers = [ observe; events ] in
  let gc = gc_of layers in
  let coverage = float_of_int (observe.ns + events.ns + gc) /. float_of_int (wall whole) in
  let st = Offline_sink.stream sink in
  let m = Report.metric r in
  m "offline_stream.observe_ns_per_msg" "ns" (ns_per observe !msgs);
  m "event_stream.ns_per_event" "ns" (ns_per events !total);
  m "streaming_chains.repair_ratio" "ratio"
    (float_of_int (Offline.Stream.repairs st) /. float_of_int (Offline.Stream.messages st));
  m "streaming_chains.peak_live_words" "words" (float_of_int (Offline.Stream.peak_live_words st));
  m "offline_stream.dimension" "count" (float_of_int (Offline.Stream.dimension st));
  m "runtime.gc_ns_per_event" "ns" (per (float_of_int gc) !total);
  m "offline.layer_coverage" "ratio" coverage;
  m "offline_stream.minor_words_per_event" "words" (per observe.minor_words !total);
  m "traced.events_per_s" "1/s" (float_of_int !total *. 1e9 /. float_of_int elapsed);
  breakdown r ~whole ~total:!total ~gc ~coverage layers
