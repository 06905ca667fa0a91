(** The streaming stamping engine behind [synts serve].

    An engine conforms to {!Synts_ingest.Ingest.S}, so everything that
    feeds a {!Synts_session.Session} can feed an engine unchanged. It
    sweeps each ordered batch on the caller's domain over one
    {!Synts_clock.Stamp_store} slab whose first [n] rows are the
    per-process clocks: a message's stamp is the componentwise maximum
    of its endpoints' rows plus one on the channel's edge group, and
    both endpoints adopt it. Stamps are bit-identical to
    {!Synts_core.Online.stamper}, which stays in-tree as the
    conformance oracle.

    Internal events never touch the clocks; they are resolved through
    {!Synts_core.Event_stream} from the message stamps, so tickets and
    resolved stamps behave exactly as a session's. *)

type t

val create : ?pending_cap:int -> Synts_graph.Decomposition.t -> t
(** [create d] builds an engine over decomposition [d]. [pending_cap]
    (default 65536, mirroring {!Synts_session.Session}) bounds the
    resolved-stamp queue: beyond it the oldest entry is dropped and
    counted in {!dropped}. [pending_cap < 1] raises [Invalid_argument]. *)

val of_layout :
  ?pending_cap:int ->
  ?init:int array array ->
  ?first_ticket:int ->
  n:int ->
  dim:int ->
  group_of_edge:(int -> int -> int) ->
  unit ->
  t
(** An engine over an explicit layout instead of a static decomposition —
    the constructor an epoch change uses. [group_of_edge] maps a
    channel to its component slot (raising [Not_found] off-topology;
    typically [Synts_graph.Membership.slot_of_edge] of the epoch's
    membership). [init] (default all zeros) seeds the per-process clock
    rows — the previous engine's {!process_vectors} translated into the
    new epoch — and must be [n] rows of width [dim]. [first_ticket]
    (default 0) continues the previous engine's ticket numbering
    ({!next_ticket}) so clients see one monotone ticket space across
    epochs. [dim < 1], [n < 0] or ill-shaped [init] raise
    [Invalid_argument]. *)

val processes : t -> int
val dimension : t -> int

val pending : t -> int
(** Resolved stamps currently queued awaiting {!drain} — the engine's
    backpressure signal. *)

val dropped : t -> int
(** Resolved stamps discarded to the [pending_cap] bound since creation
    (also the ["server.engine.dropped_events"] counter). *)

val next_ticket : t -> int
(** The ticket the next deferred internal event would get — pass it as
    [first_ticket] to the successor engine at an epoch change so the
    ticket space stays monotone. *)

val process_vectors : t -> int array array
(** The per-process clock vectors: row [p] is process [p]'s current
    clock (width {!dimension}), copied out. This is the state
    {!of_layout}'s [init] carries across a membership epoch change. *)

val telemetry_snapshot : t -> Synts_telemetry.Telemetry.snapshot
(** The engine-private registry: the ["server.engine.owned_groups"]
    histogram (one observation of its edge-group id per message) and the
    ["server.engine.internal_events"] counter. Both depend only on the
    event stream, not on how it was cut into batches. *)

val observe : t -> Synts_ingest.Ingest.event -> Synts_ingest.Ingest.outcome
(** A batch of one — see {!observe_batch}. *)

val observe_batch :
  t -> Synts_ingest.Ingest.event array -> Synts_ingest.Ingest.outcome array
(** Stamp one ordered batch; outcomes are in event order. [Message]
    events outside the layout and [Internal] events on unknown
    processes raise [Invalid_argument] before any state changes. *)

val drain :
  t -> (Synts_ingest.Ingest.ticket * Synts_core.Internal_events.stamp) list

val finish :
  t -> (Synts_ingest.Ingest.ticket * Synts_core.Internal_events.stamp) list
(** Flush pending internal events ([succ = +∞]) and reset the internal
    event stream; message clocks are {e not} reset. Tickets keep
    increasing across a [finish]. *)

val stop : t -> unit
(** Retire the engine: later batches raise [Invalid_argument].
    Idempotent. *)

module Sink : Synts_ingest.Ingest.S with type t = t
(** The {!Synts_ingest.Ingest.S} conformance. *)

val ingest : t -> Synts_ingest.Ingest.sink
(** This engine as a packed ingest sink. *)
