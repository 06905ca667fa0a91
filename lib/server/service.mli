(** Transport-independent core of the [synts serve] daemon.

    A service owns one stamping backend and the per-connection protocol
    state; the socket layer ({!Server}) only moves framed bytes. Keeping
    the core transport-free is what lets the property tests drive the
    full request path — encode, frame, (possibly corrupt), unframe,
    decode, stamp — without opening a socket.

    {2 At-least-once exactness}

    Each connection's [Observe] requests carry a client sequence number.
    The service stamps a sequence once and caches the reply: a duplicate
    delivery (network dup, or a client retransmitting after a corrupted
    frame was rejected) is answered from the cache, never re-stamped —
    so the fault injector's dup/corrupt clauses cannot skew timestamps.
    A sequence older than the cached one is answered with [Error_r]
    ("stale"), as is a gap (the client skipped a sequence). *)

type t

val create :
  ?check:bool ->
  ?offline:bool ->
  ?window:int ->
  Synts_graph.Decomposition.t ->
  t
(** [check] (default false) additionally logs every ingested event in
    arrival order so {!Protocol.Verify} can replay the whole stream
    against a mode-specific oracle. With [offline] false (the default)
    the backend is the Fig. 5 {!Engine} and verification replays
    through {!Synts_core.Online.stamper},
    comparing stamps bit-for-bit. With [offline] true the backend is
    the streaming Dilworth pipeline
    ({!Synts_ingest.Offline_sink}, live window [window]): stamps are
    offline-style rank vectors, and verification instead
    batch-timestamps the logged trace with
    {!Synts_core.Offline.timestamp_trace} and requires the same
    precedes/concurrent verdict on every message pair
    (order-equivalence — the streamed vectors are not bit-identical to
    the batch ones). *)

type conn

val attach : t -> conn
(** Register a connection (fresh sequence/cache state). *)

val detach : t -> conn -> unit

val clients : t -> int
(** Currently attached connections. *)

val handle : t -> conn -> Protocol.request -> Protocol.response
(** Execute one decoded request. Never raises: backend
    [Invalid_argument]s surface as [Error_r]. An [Observe] batch either
    stamps whole or, when the backend rejects it, changes no state and
    leaves its sequence number unused, so a corrected retry may reuse
    it. [Shutdown] answers [Bye]; the caller decides what to do with its
    transport. *)

val handle_raw : t -> conn -> string -> string
(** The byte-level path: {!Synts_clock.Wire.unframe}, decode, {!handle},
    encode, re-frame. Malformed or corrupted input yields a framed
    [Error_r] {e without} touching the connection's sequence state, so a
    retransmission of the damaged request still lands in the dedup
    window. *)

val stop : t -> unit
(** Stop the backend: the engine rejects later batches. A no-op for the
    offline-stream backend. *)

(** {2 Introspection}

    The accessors behind the admin channel ({!Admin_service}). All are
    cheap reads — safe to call between requests on the serve loop's
    thread. *)

type backend =
  | Online of Engine.t
  | Offline_stream of Synts_ingest.Offline_sink.t

val backend : t -> backend
(** The {e current} backend — a [Protocol.Churn] request retires the
    engine and replaces it with one laid out for the new epoch
    (per-process clocks translated, ticket space continued), so do not
    cache the result across requests. *)

val epoch : t -> int
(** Current membership epoch (0 for the offline backend, which does not
    support churn). *)

val membership : t -> Synts_graph.Membership.t option
(** The churn-tolerant membership behind the online backend ([None] in
    offline mode) — read-only introspection for the admin channel and
    the [epoch/*] lint rules; deltas must flow through
    [Protocol.Churn]. *)

val backend_name : t -> string
(** ["online"] or ["offline-stream"]. *)

val batches : t -> int
val messages_total : t -> int
val internal_total : t -> int

val dedup_hits : t -> int
(** Observe requests answered from a reply cache (sequence replays). *)

val errors : t -> int
(** Requests answered with [Error_r], including bad frames. *)

val pending : t -> int
(** Resolved stamps queued in the backend awaiting [Drain]. *)

val dropped : t -> int
(** Resolved stamps the backend discarded to its queue bound. *)

val stamp_quantiles : t -> float * float * float
(** [(p50, p90, p99)] server-side batch stamping latency in
    milliseconds, from the service-private [server.stamp_ms]
    histogram. *)

val conn_stats : t -> (int * int * int * int * int) list
(** Per-connection [(id, events in, stamps out, dedup hits, last seq)],
    sorted by id. *)

val telemetry_snapshot : t -> Synts_telemetry.Telemetry.snapshot
(** The service-private registry ([server.stamp_ms]) and, with the
    online backend, the engine's ({!Engine.telemetry_snapshot}), sorted
    by name. The two registries share no metric name. *)
