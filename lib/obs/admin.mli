(** The admin-channel protocol: a second, versioned frame family.

    [synts serve] can listen on a second socket reserved for
    introspection. Admin messages reuse the exact transport stack of the
    data plane — {!Synts_server.Frame} length prefixes around
    {!Synts_clock.Wire.frame} checksum frames — but the checksummed body
    opens with its {e own} family header: {!family_magic} ([0xAD]) then a
    family version byte, then a tag. A data-plane client that connects to
    the admin port (or vice versa) is therefore rejected with a
    descriptive decode error, not a misparse, and the admin protocol can
    rev independently of the stamping protocol.

    Like the data plane, integers are LEB128 varints and strings are
    length-prefixed; the latency quantiles are IEEE doubles in 8-byte
    big-endian, so encoding is bit-deterministic. *)

type metrics_format = Prom | Json

type request =
  | Health
  | Metrics of metrics_format
      (** The daemon's metrics snapshot, rendered. *)
  | Stats
  | Tracedump  (** Drain the tracer ring. *)

type conn_stat = {
  conn : int;
  events_in : int;
  stamps_out : int;
  dedup_hits : int;
  last_seq : int;
}

type stream_stat = {
  chains : int;
  live : int;
  retired : int;
  width : int;
  exact : bool;
  repairs : int;
}

type stats = {
  backend : string;  (** ["online"] or ["offline-stream"]. *)
  clients : int;
  batches : int;
  messages : int;
  internal : int;
  dedup_hits : int;
  errors : int;
  dropped : int;  (** Resolved-queue overflow drops. *)
  pending : int;  (** Resolved stamps awaiting drain. *)
  p50_ms : float;  (** Stamp-batch latency quantiles. *)
  p90_ms : float;
  p99_ms : float;
  conns : conn_stat list;
  stream : stream_stat option;  (** Offline-stream watermarks. *)
}

type response =
  | Health_r of {
      ok : bool;
      backend : string;
      processes : int;
      dimension : int;
    }
  | Metrics_r of string  (** Rendered Prometheus text or JSON. *)
  | Stats_r of stats
  | Tracedump_r of { dropped : int; spans : int; jsonl : string }
  | Error_r of string

val family_magic : char
(** First body byte of every admin message ([0xAD]). *)

val current_version : int
(** The admin family version this build speaks (2). Version 1 frames,
    whose [Health_r] and [Stats_r] carried per-shard fields, are
    rejected. *)

val encode_request : request -> string
(** Family header + tag + payload; wrap with [Wire.frame] before
    [Frame.send]. *)

val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
