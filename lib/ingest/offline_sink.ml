module Stream = Synts_core.Offline.Stream
module Event_stream = Synts_core.Event_stream

type t = {
  stream : Stream.t;
  events : Event_stream.t;
  resolved : (Event_stream.ticket * Synts_core.Internal_events.stamp) Queue.t;
  n : int;
}

let create ?window ~n () =
  {
    stream = Stream.create ?window ~n ();
    (* The event stream accepts vectors wider than its creation dimension,
       so it follows the stream's growing chain count like an adaptive
       session's. *)
    events = Event_stream.create ~dimension:1 ~n;
    resolved = Queue.create ();
    n;
  }

let stream t = t.stream
let processes t = t.n
let dimension t = Stream.dimension t.stream
let pending t = Queue.length t.resolved

let observe t event =
  match event with
  | Ingest.Message { src; dst } ->
      let v = Stream.observe t.stream ~src ~dst in
      let enqueue = List.iter (fun r -> Queue.push r t.resolved) in
      enqueue (Event_stream.record_message t.events ~proc:src v);
      enqueue (Event_stream.record_message t.events ~proc:dst v);
      Ingest.Stamped v
  | Ingest.Internal { proc } ->
      Ingest.Deferred (Event_stream.record_internal t.events ~proc)

(* The whole batch is checked before the first event is stamped, so a
   rejected batch leaves the stream as it was. *)
let observe_batch t events =
  for i = 0 to Array.length events - 1 do
    match events.(i) with
    | Ingest.Message { src; dst } ->
        if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src = dst then
          invalid_arg
            (Printf.sprintf "Offline_sink: bad channel (%d, %d)" src dst)
    | Ingest.Internal { proc } ->
        if proc < 0 || proc >= t.n then
          invalid_arg
            (Printf.sprintf "Offline_sink: internal event on unknown process %d"
               proc)
  done;
  Array.map (observe t) events

let drain t =
  let out = List.of_seq (Queue.to_seq t.resolved) in
  Queue.clear t.resolved;
  out

let finish t = drain t @ Event_stream.finish t.events

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
