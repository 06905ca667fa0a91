(** Fixed-capacity bitsets backed by [Bytes]-free int arrays.

    Used heavily for transitive closures (posets over thousands of messages)
    where word-parallel [union]/[subset] make the Warshall closure feasible,
    and as dense vertex/edge sets in graph algorithms. *)

type t
(** A set of integers in [\[0, capacity)]. Mutable. *)

val create : int -> t
(** [create n] is the empty set with capacity [n] ([n >= 0]). *)

val capacity : t -> int
(** Maximum element count the set can hold. *)

val mem : t -> int -> bool
(** Membership test; raises [Invalid_argument] when out of range. *)

val add : t -> int -> unit
(** Insert an element. *)

val remove : t -> int -> unit
(** Delete an element. *)

val cardinal : t -> int
(** Number of elements (popcount). *)

val is_empty : t -> bool

val copy : t -> t
(** Independent copy. *)

val clear : t -> unit
(** Remove all elements. *)

val fill : t -> unit
(** Add every element of [\[0, capacity)]. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets [dst := dst ∪ src]. Capacities must match. *)

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] sets [dst := dst ∩ src]. Capacities must match. *)

val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] sets [dst := dst \ src]. Capacities must match. *)

val subset : t -> t -> bool
(** [subset a b] is true iff every element of [a] is in [b]. *)

val equal : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order. *)

val first_inter : t -> t -> int
(** [first_inter a b] is the smallest element of [a ∩ b], or [-1] when
    they are disjoint — one word AND per word, no closure. Capacities must
    match. *)

val next_diff : t -> t -> int -> int
(** [next_diff a b i] is the smallest element [≥ i] of [a \ b], or [-1]
    when there is none, found a word at a time without materialising the
    difference. [b] is read at call time, so a search that marks nodes
    visited by adding them to [b], and restarts at [u + 1], visits each
    unvisited element of [a] once, in increasing order. Capacities must
    match; raises [Invalid_argument] when [i < 0]. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over elements in increasing order. *)

val elements : t -> int list
(** Elements in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n l] is the set with capacity [n] holding the elements of
    [l]. *)

val choose_opt : t -> int option
(** Smallest element, if any. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{0, 3, 7}]. *)
