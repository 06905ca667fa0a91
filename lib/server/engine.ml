module Decomposition = Synts_graph.Decomposition
module Stamp_store = Synts_clock.Stamp_store
module Event_stream = Synts_core.Event_stream
module Ingest = Synts_ingest.Ingest
module Tm = Synts_telemetry.Telemetry

let m_batches =
  Tm.Counter.v ~help:"Batches stamped by the serve engine"
    "server.engine.batches"

let m_events =
  Tm.Counter.v ~help:"Events stamped by the serve engine"
    "server.engine.events"

let m_dropped =
  Tm.Counter.v ~help:"Resolved stamps dropped to engine queue overflow"
    "server.engine.dropped_events"

type t = {
  group_of_edge : int -> int -> int;
      (* The channel -> component-slot map of the current membership
         epoch; raises [Not_found] off-topology. *)
  n : int;
  dim : int;
  slab : Stamp_store.t;
      (* Rows [0..n-1] are the per-process clocks; a batch pushes one
         row per event above them and is truncated back to [n]. *)
  registry : Tm.registry;
      (* Engine-private, so the engines of one process (churn retires
         them, benches and tests run several) keep separate counts. *)
  h_groups : Tm.Histogram.t;
  c_internal : Tm.Counter.t;
  scratch : int array;
      (* Per-group message tallies of the current batch, flushed into
         [h_groups] with one bucket walk per distinct group. *)
  mutable events : Event_stream.t;
  resolved : (int * Synts_core.Internal_events.stamp) Queue.t;
  pending_cap : int;
  mutable dropped : int;
  mutable ticket_base : int;
  mutable issued : int;
  mutable stopped : bool;
}

let make ~pending_cap ~init ~first_ticket ~n ~dim ~group_of_edge =
  if pending_cap < 1 then invalid_arg "Engine.create: pending_cap must be >= 1";
  if n < 0 then invalid_arg "Engine.create: negative process count";
  if dim < 1 then invalid_arg "Engine.create: dimension must be >= 1";
  if first_ticket < 0 then invalid_arg "Engine.create: negative first ticket";
  let slab = Stamp_store.create ~capacity:(max 64 (2 * n)) dim in
  (match init with
  | None -> for _ = 1 to n do ignore (Stamp_store.push_zero slab) done
  | Some rows ->
      if Array.length rows <> n then
        invalid_arg "Engine.create: init needs one row per process";
      Array.iter
        (fun r ->
          if Array.length r <> dim then
            invalid_arg "Engine.create: init row width mismatch";
          ignore (Stamp_store.push slab r))
        rows);
  let registry = Tm.create_registry () in
  {
    group_of_edge;
    n;
    dim;
    slab;
    registry;
    h_groups =
      Tm.Histogram.v ~registry
        ~help:"Edge-group ids of stamped messages (load profile)"
        "server.engine.owned_groups";
    c_internal =
      Tm.Counter.v ~registry ~help:"Internal events resolved by the engine"
        "server.engine.internal_events";
    scratch = Array.make dim 0;
    events = Event_stream.create ~dimension:dim ~n;
    resolved = Queue.create ();
    pending_cap;
    dropped = 0;
    ticket_base = first_ticket;
    issued = 0;
    stopped = false;
  }

let create ?(pending_cap = 65536) d =
  make ~pending_cap ~init:None ~first_ticket:0
    ~n:(Decomposition.graph_vertices d)
    ~dim:(max 1 (Decomposition.size d))
    ~group_of_edge:(fun u v -> Decomposition.group_of_edge d u v)

let of_layout ?(pending_cap = 65536) ?init ?(first_ticket = 0) ~n ~dim
    ~group_of_edge () =
  make ~pending_cap ~init ~first_ticket ~n ~dim ~group_of_edge

let processes t = t.n
let dimension t = t.dim
let pending t = Queue.length t.resolved
let dropped t = t.dropped
let next_ticket t = t.ticket_base + t.issued
let process_vectors t = Array.init t.n (Stamp_store.get t.slab)
let telemetry_snapshot t = Tm.snapshot ~registry:t.registry ()

(* The edge group of every message (-1 for internal events); raises
   before any state changes when an event is off the layout. *)
let validate t events =
  Array.map
    (fun ev ->
      match ev with
      | Ingest.Internal { proc } ->
          if proc < 0 || proc >= t.n then
            invalid_arg
              (Printf.sprintf "Engine: internal event on unknown process %d"
                 proc);
          -1
      | Ingest.Message { src; dst } -> (
          try t.group_of_edge src dst
          with Not_found ->
            invalid_arg
              (Printf.sprintf
                 "Engine: channel (%d, %d) outside the decomposition" src dst)))
    events

(* Bounded like a session's pending queue: when a client never drains,
   the oldest resolved stamp is dropped (and counted) rather than
   growing the daemon without bound. *)
let enqueue t resolved =
  List.iter
    (fun (ticket, stamp) ->
      if Queue.length t.resolved >= t.pending_cap then begin
        ignore (Queue.pop t.resolved);
        t.dropped <- t.dropped + 1;
        Tm.Counter.incr m_dropped
      end;
      Queue.push (t.ticket_base + ticket, stamp) t.resolved)
    resolved

let observe_batch t events =
  if t.stopped then invalid_arg "Engine: stopped";
  let len = Array.length events in
  if len = 0 then [||]
  else begin
    let groups = validate t events in
    Tm.Counter.incr m_batches;
    Tm.Counter.add m_events len;
    let slab = t.slab and scratch = t.scratch in
    let internals = ref 0 in
    (* The Fig. 5 rule, one row per event pushed above the clocks: a
       message's stamp is the componentwise max of its endpoints' clocks
       plus one on the channel's group, and both endpoints adopt it. *)
    Array.iteri
      (fun i ev ->
        match ev with
        | Ingest.Internal _ ->
            ignore (Stamp_store.push_zero slab);
            incr internals
        | Ingest.Message { src; dst } ->
            let g = groups.(i) in
            let r = Stamp_store.push_merge slab ~a:src ~b:dst in
            Stamp_store.row_incr slab r g;
            Stamp_store.blit_rows slab ~src:r ~dst:src;
            Stamp_store.blit_rows slab ~src:r ~dst:dst;
            scratch.(g) <- scratch.(g) + 1)
      events;
    let outcomes =
      Array.mapi
        (fun i ev ->
          match ev with
          | Ingest.Internal { proc } ->
              let ticket = Event_stream.record_internal t.events ~proc in
              t.issued <- t.issued + 1;
              Ingest.Deferred (t.ticket_base + ticket)
          | Ingest.Message { src; dst } ->
              let v = Stamp_store.get slab (t.n + i) in
              enqueue t (Event_stream.record_message t.events ~proc:src v);
              enqueue t (Event_stream.record_message t.events ~proc:dst v);
              Ingest.Stamped v)
        events
    in
    Stamp_store.truncate slab t.n;
    (* Group ids are small integers, so [observe_n] leaves the histogram
       exactly as per-message observes would. *)
    Array.iteri
      (fun g k ->
        if k > 0 then begin
          Tm.Histogram.observe_n t.h_groups (float_of_int g) k;
          scratch.(g) <- 0
        end)
      scratch;
    Tm.Counter.add t.c_internal !internals;
    outcomes
  end

let observe t ev = (observe_batch t [| ev |]).(0)

let drain t =
  let out = List.of_seq (Queue.to_seq t.resolved) in
  Queue.clear t.resolved;
  out

let finish t =
  let flushed =
    List.map
      (fun (ticket, stamp) -> (t.ticket_base + ticket, stamp))
      (Event_stream.finish t.events)
  in
  let out = drain t @ flushed in
  (* Event_stream.finish retires the stream; tickets keep increasing
     across the replacement via the base offset. *)
  t.ticket_base <- t.ticket_base + t.issued;
  t.issued <- 0;
  t.events <- Event_stream.create ~dimension:t.dim ~n:t.n;
  out

let stop t = t.stopped <- true

module Sink = struct
  type nonrec t = t

  let observe = observe
  let observe_batch = observe_batch
  let drain = drain
  let finish = finish
  let processes = processes
  let dimension = dimension
end

let ingest t = Ingest.sink (module Sink) t
