(** Open-loop traffic sweep — latency quantiles vs offered QPS.

    Queries arrive at Poisson times over Zipf-popular topics against a
    converged network and execute {e in flight} on the discrete-event
    engine ({!Ri_sim.Engine}): per-node mailboxes with a configurable
    service rate, a constant per-hop link latency, thousands of query
    state machines ({!Ri_p2p.Query.Step}) interleaved — optionally with
    update waves riding the same mailboxes.  Each swept QPS point
    reports p50/p95/p99 latency, goodput, queue depths and makespan;
    the first point whose median latency exceeds twice the no-load walk
    time (one service slot plus one link delay per message) marks the
    saturation knee.

    The traffic observatory rides along ({!Ri_obs.Observatory}): every
    completed query's latency decomposes exactly into queue-wait +
    service + link-transit with critical-hop attribution, per-node
    engine counters rank into a top-K hotspot table per point, and an
    optional logical-time timeline exports as byte-identical JSONL.

    Deterministic at any pool width: each (qps, trial) pair runs a
    single-threaded engine seeded from trial-keyed substreams, trials
    are dealt [~chunk:1] in trial order, and sketch / decomposition /
    node-accumulator merging is order-independent. *)

val id : string
val title : string
val paper_claim : string

type opts = {
  o_qps : float list;  (** offered arrival rates to sweep, each > 0 *)
  o_duration : float;  (** open-loop arrival window, seconds *)
  o_service_rate : float;  (** per-node service capacity, messages/sec *)
  o_link_latency : float;  (** per-hop propagation delay, milliseconds *)
  o_update_rate : float;  (** interleaved update waves per second, >= 0 *)
  o_zipf : float;  (** topic-popularity skew exponent *)
  o_shift_every : int;  (** rotate the hot set every N draws; 0 = never *)
  o_trials : int;
  o_hotspots : int;  (** top-K hotspot nodes reported per point, >= 0 *)
  o_timeline_bins : int;
      (** bins in the per-trial logical-time timeline (used only while
          {!Ri_obs.Observatory} records), >= 1 *)
}

val default_opts : opts

(** One swept QPS point, aggregated across trials. *)
type point = {
  q_qps : float;
  q_offered : float;  (** measured arrival rate, queries/sec *)
  q_arrivals : int;
  q_completed : int;
  q_satisfied : int;
  q_goodput : float;  (** satisfied queries per second of makespan *)
  q_p50_ms : float;
  q_p95_ms : float;
  q_p99_ms : float;
  q_mean_ms : float;
  q_messages_per_query : float;
  q_update_messages : int;
  q_queue_peak : int;
  q_queue_mean : float;
  q_makespan_s : float;
  q_saturated : bool;
      (** median latency exceeded twice the no-load walk time — mailbox
          queueing dominates the walk itself *)
  q_queue_ms : float;  (** mean per-query queue-wait, milliseconds *)
  q_service_ms : float;  (** mean per-query service time, milliseconds *)
  q_link_ms : float;  (** mean per-query link transit, milliseconds *)
  q_queue_share : float;
      (** fraction of end-to-end time spent queueing — the measured
          form of [q_saturated] *)
  q_hotspots : Ri_obs.Observatory.hotspot list;
      (** top-K nodes by accumulated queue-wait, merged across trials
          (node ids align across trials of the same generator params) *)
}

(** Per-(qps, trial) raw result, exposed for the determinism tests. *)
type trial_result = {
  r_arrivals : int;
  r_completed : int;
  r_satisfied : int;
  r_found : int;
  r_messages : int;
  r_update_messages : int;
  r_update_wire_bytes : int;
  r_queue_peak : int;
  r_queue_mean : float;
  r_makespan_s : float;
  r_makespan_ns : int;  (** arrival window plus drain overhang, ns *)
  r_sketch : Ri_obs.Sketch.t;  (** per-query latency, milliseconds *)
  r_decomp : Ri_obs.Observatory.decomp;
      (** exact latency decomposition: queue + service + link sums to
          end-to-end over the completed queries *)
  r_nodes : Ri_obs.Observatory.node_acc;  (** per-node attribution *)
}

val simulate :
  Ri_sim.Config.t -> opts:opts -> qps:float -> trial:int -> trial_result
(** One (qps, trial) simulation on a fresh engine.  Bit-identical for a
    given (config, opts, qps, trial) whatever else runs concurrently —
    with timeline recording on or off (the recorder only reads engine
    state).
    @raise Invalid_argument on a flooding config (a flood has no
    sequential walk to schedule). *)

val measure : ?opts:opts -> Ri_sim.Config.t -> qps:float -> point
(** Run [opts.o_trials] trials of one QPS point across the global pool
    and aggregate.  Bumps the observability unit once, on the
    submitting domain, so traces and timelines stay byte-identical at
    any [--jobs].
    @raise Invalid_argument on invalid [opts] or config. *)

val sweep : ?opts:opts -> Ri_sim.Config.t -> unit -> point list
(** [measure] for every rate in [opts.o_qps], in order, publishing the
    sweep-so-far to {!Ri_obs.Serve.Traffic} after each point. *)

val knee_of : point list -> float option
(** Offered rate of the first saturated point, if any. *)

val report_of : point list -> Report.t

val hotspots_report_of : point list -> Report.t
(** Top-K hotspot nodes per swept point: queue-wait, busy time,
    utilization, peak depth and critical-hop counts. *)

val json_of : opts:opts -> point list -> string
