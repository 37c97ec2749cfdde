(** Bridge from the simulator's always-on internal counters
    ({!Setup_cache} hit/miss, {!Ri_util.Pool} utilization) into the
    {!Ri_obs.Metrics} registry, plus the one-line human summaries the
    CLI prints after experiment runs. *)

val export_metrics : unit -> unit
(** Snapshot current setup-cache and global-pool statistics into
    gauges ([ri_setup_cache_*], [ri_pool_*]) — the pool's items are
    trials, the one unit that runs in parallel — and the per-phase GC
    deltas as [ri_gc_*{phase=...}] gauges ({!Ri_obs.Gcprof}).  Call
    just before {!Ri_obs.Metrics.render}. *)

val render_metrics : unit -> string
(** [export_metrics] then {!Ri_obs.Metrics.render}: counters, gauges
    and summaries in one sorted pass.  What [--metrics] writes and
    [--serve-obs] serves at [/metrics]. *)

val gc_lines : unit -> string list
(** Per-phase GC summary table ({!Ri_obs.Gcprof.table_lines}); empty
    when no phase ran with metrics on. *)

val cache_line : unit -> string
(** e.g. ["setup-cache: graphs 40 hits / 8 misses (83%), content ...,
    baselines 35 hits / 5 misses"], or a note that the cache is
    disabled. *)

val pool_line : unit -> string
(** e.g. ["pool: 4 domains, 12 waves / 96 trials (max wave 8), ..."].
    Only trials are submitted to the pool, so the item count is the
    number of trials run. *)
