(* The seeded event stream every workload feeds its system, and the
   digest its message stamps are folded into. *)

module Rng = Synts_util.Rng
module Decomposition = Synts_graph.Decomposition
module Ingest = Synts_ingest.Ingest

let internal_share = 0.1

type t = { rng : Rng.t; channels : (int * int) array; n : int }

let create ~seed d =
  {
    rng = Rng.create seed;
    channels =
      Array.of_list
        (List.concat_map Decomposition.edges_of_group (Decomposition.groups d));
    n = Decomposition.graph_vertices d;
  }

(* One event: an internal event on a uniform process with probability
   [internal_share], otherwise a message on a uniform channel in a
   uniform direction. *)
let event g =
  if Rng.chance g.rng internal_share then Ingest.Internal { proc = Rng.int g.rng g.n }
  else
    let u, v = Rng.pick_array g.rng g.channels in
    if Rng.bool g.rng then Ingest.Message { src = u; dst = v }
    else Ingest.Message { src = v; dst = u }

let batch g size = Array.init size (fun _ -> event g)

(* A generator that will draw the same events as [g]. *)
let copy g = { g with rng = Rng.copy g.rng }

(* Order-sensitive digest of message stamps. *)
let digest0 = 0x2545F4914F6CDD1D

let fold_vector h v =
  Array.fold_left (fun h x -> (h lxor x) * 0x100000001b3) (h lxor Array.length v) v

let fold_outcomes h outcomes =
  Array.fold_left
    (fun h -> function
      | Ingest.Stamped v -> fold_vector h v
      | Ingest.Deferred _ -> h)
    h outcomes

let internal_count events =
  Array.fold_left
    (fun k -> function Ingest.Internal _ -> k + 1 | Ingest.Message _ -> k)
    0 events

(* The Fig. 5 oracle over the same events: the digest
   [fold_outcomes] must reach when every stamp is exact. *)
let oracle_digest stamp h events =
  Array.fold_left
    (fun h -> function
      | Ingest.Message { src; dst } -> fold_vector h (stamp ~src ~dst)
      | Ingest.Internal _ -> h)
    h events

(* Resolved internal stamps, tallied without being kept: how many
   arrived and how many distinct tickets they carried. *)
type tickets = { mutable resolved : int; mutable distinct : int; mutable seen : Bytes.t }

let tickets () = { resolved = 0; distinct = 0; seen = Bytes.make 1024 '\000' }

let tally t resolved =
  List.iter
    (fun (ticket, _) ->
      t.resolved <- t.resolved + 1;
      let i = ticket lsr 3 and bit = 1 lsl (ticket land 7) in
      if i >= Bytes.length t.seen then begin
        let seen = Bytes.make (max (2 * Bytes.length t.seen) (i + 1)) '\000' in
        Bytes.blit t.seen 0 seen 0 (Bytes.length t.seen);
        t.seen <- seen
      end;
      let b = Char.code (Bytes.get t.seen i) in
      if b land bit = 0 then begin
        Bytes.set t.seen i (Char.chr (b lor bit));
        t.distinct <- t.distinct + 1
      end)
    resolved

let check_tickets r ~internal t =
  Report.check r
    (t.distinct = internal && t.resolved = internal)
    "%d internal events sent, %d stamps resolved (%d distinct)" internal t.resolved
    t.distinct
