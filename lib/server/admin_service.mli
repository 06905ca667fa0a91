(** Server side of the admin channel: answers {!Synts_obs.Admin}
    requests from {!Service} state.

    Runs on the serve loop's thread between data-plane requests, so
    every read — per-connection tallies, backend queue depths, the
    registries, the tracer ring — is a coherent snapshot; nothing here
    blocks or stamps. *)

val snapshot : Service.t -> Synts_telemetry.Telemetry.snapshot
(** The [metrics] view: the process-wide default registry followed by
    {!Service.telemetry_snapshot}, sorted by name. The registries share
    no metric name, so every name appears once. *)

val stats : Service.t -> Synts_obs.Admin.stats
(** The [Stats] payload: totals, dedup/drop/pending counters, stamp
    latency quantiles, per-connection rows and (in offline mode) the
    streaming watermarks. *)

val handle : Service.t -> Synts_obs.Admin.request -> Synts_obs.Admin.response

val handle_raw : Service.t -> string -> string
(** Byte-level path: unframe, decode (family magic + version checked),
    {!handle}, encode, re-frame. Malformed input yields a framed
    [Error_r]. A data-plane request arriving here decodes as "not an
    admin-family message". *)
