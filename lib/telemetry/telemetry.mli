(** Deterministic, allocation-light metrics for the whole stack.

    Every layer of the library (session, online stamping, the network
    simulator, the rendezvous protocol, the CSP runtime) records
    counters, gauges, fixed-bucket histograms and logical-time spans
    into a {!registry} keyed by dotted metric names
    (["net.packets_sent"], ["csp.dispatches"], …). The design rules:

    - {b no wall clock}: ticks always come from the caller — the
      simulator's virtual clock, the CSP scheduler's dispatch counter,
      or a session's sequence numbers — so two runs from the same seed
      produce byte-identical {!snapshot}s;
    - {b allocation-light}: recording is a bounds check plus an integer
      store; histograms use fixed bucket arrays; nothing allocates on
      the hot path;
    - {b switchable}: {!set_enabled}[ false] turns every recording
      site into a single boolean test, so instrumented code can be
      benchmarked against its uninstrumented self (see the
      [telemetry-overhead] group in [bench/main.ml]).

    Metrics are registered on first use ({!Counter.v} etc. are
    idempotent by name) and live for the lifetime of the registry;
    {!reset} zeroes values but keeps registrations, {!snapshot} returns
    a name-sorted copy for export ({!to_prometheus}, {!to_json}). *)

type registry

val default : registry
(** The process-wide registry every built-in instrumentation site uses. *)

val create_registry : unit -> registry
(** A private registry for embedders who want isolation. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Global switch (default [true]). When disabled, every recording
    operation returns after one boolean test; registration, {!snapshot}
    and {!reset} still work. *)

(** Monotonic counters. *)
module Counter : sig
  type t

  val v : ?registry:registry -> ?help:string -> string -> t
  (** Register (or look up) the counter named by a dotted string.
      Raises [Invalid_argument] if the name is already registered as a
      different metric kind. *)

  val incr : t -> unit
  val add : t -> int -> unit
  (** Negative increments raise [Invalid_argument]. *)

  val value : t -> int
end

(** Last-value gauges (set-only, integer-valued). *)
module Gauge : sig
  type t

  val v : ?registry:registry -> ?help:string -> string -> t
  val set : t -> int -> unit
  val set_max : t -> int -> unit
  (** High-watermark: [set] only if the new value is larger. *)

  val value : t -> int
end

(** Fixed-bucket histograms. Buckets are upper bounds (inclusive), in
    increasing order; an implicit +∞ bucket catches the rest. *)
module Histogram : sig
  type t

  val default_buckets : float array
  (** [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]. *)

  val v :
    ?registry:registry -> ?help:string -> ?buckets:float array -> string -> t
  (** [buckets] must be strictly increasing and non-empty; it is fixed
      at first registration (later [v] calls ignore the argument). *)

  val observe : t -> float -> unit

  val observe_n : t -> float -> int -> unit
  (** [observe_n t x n] records [n] observations of [x] with one bucket
      walk — what hot loops use to aggregate per-batch. For integral [x]
      (and any [x] where [x *. n] is exact) the result is structurally
      identical to [n] calls of {!observe}, so a snapshot does not
      depend on how the observations were batched. *)

  val count : t -> int
  val sum : t -> float

  val min_value : t -> float
  val max_value : t -> float
  (** Smallest / largest observation so far; [0.] while empty. *)

  val quantile : t -> float -> float
  (** [quantile h q] estimates the [q]-quantile ([0 ≤ q ≤ 1]) of the
      observed distribution by linear interpolation within buckets: the
      target rank [q·count] is located in the cumulative bucket counts and
      interpolated between the bucket's lower and upper bounds (the first
      bucket's lower bound is 0). Observations in the +∞ bucket clamp to
      the last finite bound. Returns [0.] for an empty histogram; raises
      [Invalid_argument] when [q] is outside [0, 1]. *)
end

(** Logical-time spans: durations measured in caller-supplied ticks
    (virtual time, scheduler steps, sequence numbers), recorded into a
    histogram named at registration. *)
module Span : sig
  type t
  type active

  val v :
    ?registry:registry -> ?help:string -> ?buckets:float array -> string -> t

  val start : t -> tick:float -> active
  val stop : active -> tick:float -> unit
  (** Observes [tick - start_tick] into the span's histogram. Stopping
      twice is a no-op. *)
end

(** {1 Snapshots and export} *)

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of {
      buckets : (float * int) array;  (** (upper bound, count in bucket) *)
      inf : int;  (** Count above the last bound. *)
      sum : float;
      count : int;
      min : float;
          (** Smallest observation; [+inf] while [count = 0], so it is
              the identity of [min] (exports render 0). *)
      max : float;  (** Largest observation; [-inf] while [count = 0]. *)
    }

type snapshot = (string * value) list
(** Sorted by metric name. *)

val quantile_of_value : value -> float -> float option
(** {!Histogram.quantile} over a snapshot value: [Some estimate] for
    histograms, [None] for counters and gauges. *)

val snapshot : ?registry:registry -> unit -> snapshot
val reset : ?registry:registry -> unit -> unit
(** Zero every value; registrations (names, help, buckets) survive. *)

val metric_names : ?registry:registry -> unit -> (string * string) list
(** Registered [(name, help)] pairs, sorted by name. *)

val to_prometheus : ?registry:registry -> snapshot -> string
(** Prometheus text exposition format. Dotted names are mapped to
    underscores; histogram buckets are emitted cumulatively with an
    final [+Inf] bucket, as the format requires, followed by
    [_sum]/[_count]/[_min]/[_max] summary lines. *)

val to_json : ?registry:registry -> snapshot -> string
(** A single JSON object keyed by metric name. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable one-line-per-metric rendering. *)
