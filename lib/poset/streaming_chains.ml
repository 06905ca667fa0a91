module Bitset = Synts_util.Bitset
module Tm = Synts_telemetry.Telemetry

(* Watermark gauges on the default registry — the live-introspection
   hooks the admin channel and `synts top` read. Values are functions of
   the inserted prefix, so seeded runs keep byte-identical snapshots. *)
let m_chains =
  Tm.Gauge.v ~help:"Chains opened by the streaming Dilworth pipeline"
    "poset.stream.chains"

let m_live =
  Tm.Gauge.v ~help:"Peak live-window occupancy of the streaming pipeline"
    "poset.stream.live"

let m_retired =
  Tm.Gauge.v ~help:"Elements retired from the streaming live window"
    "poset.stream.retired"

let m_width =
  Tm.Gauge.v ~help:"Width estimate of the streaming pipeline"
    "poset.stream.width"

type stamp = int array

type info = {
  chain : int;
  opened : bool;
  matched : bool;
  visited : int;
  retired : int;
}

let no_info = { chain = -1; opened = false; matched = false; visited = 0; retired = 0 }

(* Live elements occupy slots in [0, window): fixed arrays indexed by slot,
   recycled through a free stack. The matching (split bipartite graph of
   the inserted prefix) also lives in slot space: [pair_left.(u)] is the
   slot matched as left u's successor, [pair_right.(r)] the slot matched
   as right r's predecessor; -1 free, -2 matched to a retired element
   (the pair still counts, but its edge can never be re-routed).

   Retirement goes oldest-first and a chain's tail is its newest element,
   so the live part of every chain is a rank suffix, linked bottom to top
   through [below]/[above]. That is what lets [insert] build the new
   ancestor row from one live slot per chain instead of visiting every
   live slot. *)
type t = {
  window : int;
  (* Chains: never relinked, only appended to — the append-only invariant
     is what makes the emitted stamps final (see the .mli). *)
  mutable dim : int;
  mutable lengths : int array;  (* per chain, elements so far *)
  mutable tail_seq : int array;  (* per chain, insertion seq of its tail *)
  mutable tail_slot : int array;  (* live slot of the tail, -1 if retired *)
  mutable bottom_slot : int array;  (* lowest live slot, -1 if none *)
  mutable tail_stamp : stamp array;  (* the tail's emitted stamp *)
  mutable base : int array;  (* insert scratch: merged predecessor stamp *)
  mutable cands : int array;  (* insert scratch: extendable chains *)
  (* Live window. *)
  chain_of : int array;
  rank_of : int array;  (* 1-based rank within its chain *)
  below : int array;  (* live slot one rank down the chain, -1 if none *)
  above : int array;  (* live slot one rank up the chain, -1 if none *)
  anc : Bitset.t array;  (* per slot, its live strict ancestors *)
  pair_left : int array;
  pair_right : int array;
  open_left : Bitset.t;  (* slots u with pair_left.(u) = -1 *)
  age : int array;  (* live slots, oldest first, in [0, age_len) *)
  mutable age_len : int;
  free : int array;  (* free-slot stack *)
  mutable free_top : int;
  vis : Bitset.t;  (* augment scratch: left nodes visited this search *)
  gone : Bitset.t;  (* make_room scratch: slots retired this sweep *)
  mutable size : int;
  mutable matching : int;
  mutable retired : int;
  mutable repairs : int;
  mutable visits : int;  (* left nodes visited by the current search *)
  mutable last : info;
}

let create ?(window = 1024) () =
  if window < 2 then invalid_arg "Streaming_chains.create: window must be >= 2";
  let open_left = Bitset.create window in
  Bitset.fill open_left;
  {
    window;
    dim = 0;
    lengths = [||];
    tail_seq = [||];
    tail_slot = [||];
    bottom_slot = [||];
    tail_stamp = [||];
    base = [||];
    cands = [||];
    chain_of = Array.make window (-1);
    rank_of = Array.make window 0;
    below = Array.make window (-1);
    above = Array.make window (-1);
    anc = Array.init window (fun _ -> Bitset.create window);
    pair_left = Array.make window (-1);
    pair_right = Array.make window (-1);
    open_left;
    age = Array.make window 0;
    age_len = 0;
    free = Array.init window (fun i -> window - 1 - i);
    free_top = window;
    vis = Bitset.create window;
    gone = Bitset.create window;
    size = 0;
    matching = 0;
    retired = 0;
    repairs = 0;
    visits = 0;
    last = no_info;
  }

let size t = t.size
let chains t = t.dim
let width t = t.size - t.matching
let exact t = t.retired = 0
let live t = t.age_len
let retired t = t.retired
let repairs t = t.repairs

let last_info t = t.last

let chain_length t c =
  if c < 0 || c >= t.dim then invalid_arg "Streaming_chains.chain_length";
  t.lengths.(c)

(* Words held live by the structure, by construction O(window² / word_size
   + chains): the slot arrays, the per-slot ancestor bitsets, and the
   chain arrays. Independent of the number of elements inserted. *)
let live_words t =
  let bitset_words = (t.window + Sys.int_size - 1) / Sys.int_size + 2 in
  (8 * (t.window + 1)) (* chain_of rank_of below above pair_* age free *)
  + ((t.window + 3) * bitset_words) (* anc + open_left + vis + gone *)
  + (7 * (Array.length t.lengths + 1)) (* chain arrays and scratch *)
  + Array.fold_left (fun acc s -> acc + Array.length s + 1) 0 t.tail_stamp

let ensure_chain_capacity t =
  let cap = Array.length t.lengths in
  if t.dim = cap then begin
    let bigger = max 4 (2 * cap) in
    let copy a fill =
      let b = Array.make bigger fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.lengths <- copy t.lengths 0;
    t.tail_seq <- copy t.tail_seq (-1);
    t.tail_slot <- copy t.tail_slot (-1);
    t.bottom_slot <- copy t.bottom_slot (-1);
    t.base <- copy t.base 0;
    t.cands <- copy t.cands 0;
    let stamps = Array.make bigger [||] in
    Array.blit t.tail_stamp 0 stamps 0 cap;
    t.tail_stamp <- stamps
  end

let retire_slot t v =
  Bitset.add t.gone v;
  Bitset.clear t.anc.(v);
  (* Freeze matched partners: their edges survive in [matching] but can
     no longer be re-routed by later augmenting searches. *)
  let r = t.pair_left.(v) in
  if r >= 0 then t.pair_right.(r) <- -2;
  let u = t.pair_right.(v) in
  if u >= 0 then t.pair_left.(u) <- -2;
  t.pair_left.(v) <- -1;
  Bitset.add t.open_left v;
  t.pair_right.(v) <- -1;
  (* Oldest-first retirement only ever takes a chain's bottom slot, which
     keeps the chain's live part a rank suffix. *)
  let c = t.chain_of.(v) in
  assert (t.bottom_slot.(c) = v);
  if t.tail_slot.(c) = v then t.tail_slot.(c) <- -1;
  let up = t.above.(v) in
  t.bottom_slot.(c) <- up;
  if up >= 0 then t.below.(up) <- -1;
  t.above.(v) <- -1;
  t.chain_of.(v) <- -1;
  t.free.(t.free_top) <- v;
  t.free_top <- t.free_top + 1;
  t.retired <- t.retired + 1

(* Frontier retirement: when the window fills, drop the oldest half of the
   live prefix (each live chain has advanced past it, or soon will), oldest
   first, preferring elements that are no longer a chain tail. Emitted
   stamps are unaffected — only the matching's re-routing horizon shrinks,
   so [width] decays from exact to an upper bound. [age] already holds the
   live slots oldest first, so no sort is needed; it is compacted at the
   end. *)
let make_room t =
  Bitset.clear t.gone;
  let count = t.age_len in
  let target = t.window / 2 in
  let remaining = ref count in
  for i = 0 to count - 1 do
    let v = t.age.(i) in
    if !remaining > target && t.tail_slot.(t.chain_of.(v)) <> v then begin
      retire_slot t v;
      decr remaining
    end
  done;
  (* Everything live is a chain tail (dim ≥ window/2): retire oldest tails
     unconditionally until a slot frees up. *)
  if t.free_top = 0 then
    for i = 0 to count - 1 do
      let v = t.age.(i) in
      if !remaining > target && t.chain_of.(v) >= 0 then begin
        retire_slot t v;
        decr remaining
      end
    done;
  (* Compact the survivors and drop the retired slots' bits from their
     ancestor rows in one word-parallel sweep — the "closure row"
     retirement of the streaming pipeline. *)
  let k = ref 0 in
  for i = 0 to count - 1 do
    let v = t.age.(i) in
    if t.chain_of.(v) >= 0 then begin
      Bitset.diff_into ~dst:t.anc.(v) t.gone;
      t.age.(!k) <- v;
      incr k
    end
  done;
  t.age_len <- !k

(* Merge the predecessor stamps componentwise into [t.base.(0 .. dim-1)]. *)
let rec merge_preds t base = function
  | [] -> ()
  | p :: rest ->
      for i = 0 to min (Array.length p) t.dim - 1 do
        if p.(i) < 0 || p.(i) > t.lengths.(i) then
          invalid_arg "Streaming_chains.insert: stamp from another structure";
        if p.(i) > base.(i) then base.(i) <- p.(i)
      done;
      merge_preds t base rest

(* The live slot holding rank [k] of chain [c], or -1 when that element
   is retired. The chain's live slots are the ranks from its bottom slot
   up to its tail, linked both ways, so the walk starts from the nearer
   end. *)
let slot_of_rank t c k =
  let b = t.bottom_slot.(c) in
  if b < 0 || k < t.rank_of.(b) then -1
  else if k - t.rank_of.(b) <= t.lengths.(c) - k then begin
    let x = ref b in
    while t.rank_of.(!x) < k do
      x := t.above.(!x)
    done;
    !x
  end
  else begin
    let x = ref t.tail_slot.(c) in
    while t.rank_of.(!x) > k do
      x := t.below.(!x)
    done;
    !x
  end

(* The new element's live ancestors, read off the chain-prefix invariant:
   on chain c exactly the ranks 1..base.(c) are below it, so its live
   ancestors on c are the live rank-base.(c) slot x and x's own ancestors
   on c. Since x's row holds all of x's live ancestors, and each of them is
   below the new element too, the row is the union over chains of
   {x} ∪ anc(x) — one word-parallel OR per chain. A slot already in the
   row contributes nothing new: its ancestors are in there as well. *)
let ancestors_of_base t base s =
  let a = t.anc.(s) in
  for c = 0 to t.dim - 1 do
    let k = base.(c) in
    if k > 0 then begin
      let x = slot_of_rank t c k in
      if x >= 0 && not (Bitset.mem a x) then begin
        Bitset.add a x;
        Bitset.union_into ~dst:a t.anc.(x)
      end
    end
  done;
  a

let set_pair t u r =
  t.pair_left.(u) <- r;
  Bitset.remove t.open_left u;
  t.pair_right.(r) <- u

(* Augmenting-path search from right node [r] (Matching.augment_from,
   specialised): its ancestors [u] that this search has not visited yet
   are tried in ascending slot order, [u] is free or its partner can be
   re-routed. [next_diff] re-reads [vis] on every step, so nodes the
   recursion visits are skipped: each left node is tried at most once per
   search, in ascending order. No closure, no allocation per visited
   node. *)
let rec augment t r = scan t r t.anc.(r) 0

and scan t r row i =
  let u = Bitset.next_diff row t.vis i in
  if u < 0 then false
  else begin
    Bitset.add t.vis u;
    t.visits <- t.visits + 1;
    let p = t.pair_left.(u) in
    if p = -1 || (p >= 0 && augment t p) then begin
      set_pair t u r;
      true
    end
    else scan t r row (u + 1)
  end

(* No other candidate's tail is above chain [c]'s tail: tail(c) <
   tail(c') iff tail(c')'s stamp already counts all of chain c — the
   one-coordinate chain-prefix test. *)
let maximal_candidate t c ncands =
  let ok = ref true in
  for i = 0 to ncands - 1 do
    let c' = t.cands.(i) in
    let s' = t.tail_stamp.(c') in
    if c' <> c && c < Array.length s' && s'.(c) >= t.lengths.(c) then ok := false
  done;
  !ok

let insert t ~preds =
  let retired_now = t.retired in
  if t.free_top = 0 then make_room t;
  let dim = t.dim in
  let base = t.base in
  Array.fill base 0 dim 0;
  merge_preds t base preds;
  t.free_top <- t.free_top - 1;
  let s = t.free.(t.free_top) in
  let anc = ancestors_of_base t base s in
  t.visits <- 0;
  (* Patience tier: an unmatched ancestor (a matching-chain tail) takes
     the new element directly — the lowest such slot. *)
  let u = Bitset.first_inter anc t.open_left in
  let matched =
    if u >= 0 then begin
      set_pair t u s;
      true
    end
    else if Bitset.is_empty anc then false
    else begin
      (* Repair tier: one full augmenting-path search re-routes existing
         matched edges inside the live window. [next_diff] skips
         already-visited left nodes at word granularity, so one search
         costs O(visited rows · window/word) words, not O(visited rows ·
         row popcount) per-bit calls — the difference between quadratic
         and near-linear repair on dense windows. *)
      t.repairs <- t.repairs + 1;
      Bitset.clear t.vis;
      augment t s
    end
  in
  if matched then t.matching <- t.matching + 1;
  (* Chain placement: extendable chains are exactly those whose full
     length is already counted by [base] (the down-set meets every chain
     in a prefix). Among the candidates, only a tail that is {e maximal}
     among the candidate tails may be extended — covering a non-maximal
     tail would strand the maximal one below the new element and force an
     extra chain later. Prefer the matched predecessor's chain when it
     qualifies (keeping placement chains aligned with matching chains),
     then the most recently extended candidate (patience rule), which is
     always maximal: a tail above another tail was inserted after it. *)
  let ncands = ref 0 in
  let best = ref (-1) in
  for c = 0 to dim - 1 do
    if t.lengths.(c) > 0 && base.(c) = t.lengths.(c) then begin
      t.cands.(!ncands) <- c;
      incr ncands;
      if !best < 0 || t.tail_seq.(c) > t.tail_seq.(!best) then best := c
    end
  done;
  let candidate =
    let u = t.pair_right.(s) in
    let c = if matched && u >= 0 then t.chain_of.(u) else -1 in
    if c >= 0 && t.tail_slot.(c) = u && base.(c) = t.lengths.(c)
       && maximal_candidate t c !ncands
    then c
    else !best
  in
  let opened = candidate < 0 in
  let c =
    if opened then begin
      ensure_chain_capacity t;
      let c = t.dim in
      t.dim <- t.dim + 1;
      t.lengths.(c) <- 0;
      c
    end
    else candidate
  in
  let out = Array.make t.dim 0 in
  Array.blit t.base 0 out 0 dim;
  t.lengths.(c) <- t.lengths.(c) + 1;
  out.(c) <- t.lengths.(c);
  let tail = t.tail_slot.(c) in
  if tail >= 0 then t.above.(tail) <- s;
  t.below.(s) <- tail;
  if t.bottom_slot.(c) < 0 then t.bottom_slot.(c) <- s;
  t.tail_seq.(c) <- t.size;
  t.tail_slot.(c) <- s;
  t.tail_stamp.(c) <- out;
  t.chain_of.(s) <- c;
  t.rank_of.(s) <- t.lengths.(c);
  t.age.(t.age_len) <- s;
  t.age_len <- t.age_len + 1;
  t.size <- t.size + 1;
  t.last <-
    {
      chain = c;
      opened;
      matched;
      visited = t.visits;
      retired = t.retired - retired_now;
    };
  Tm.Gauge.set m_chains t.dim;
  (* live occupancy = inserted minus retired; peak-hold watermark *)
  Tm.Gauge.set_max m_live (t.size - t.retired);
  Tm.Gauge.set m_retired t.retired;
  Tm.Gauge.set m_width (t.size - t.matching);
  out

(* Strict stamp order with implicit zero-padding: stamps emitted before a
   chain was opened are compared as if padded with zeros. *)
let stamp_lt u v =
  let lu = Array.length u and lv = Array.length v in
  let n = max lu lv in
  let leq = ref true and strict = ref false in
  for i = 0 to n - 1 do
    let a = if i < lu then u.(i) else 0 in
    let b = if i < lv then v.(i) else 0 in
    if a > b then leq := false;
    if a < b then strict := true
  done;
  !leq && !strict
