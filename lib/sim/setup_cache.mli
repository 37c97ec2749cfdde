(** Cross-trial cache of the immutable, expensive trial ingredients.

    The paper's evaluation repeats every data point over independently
    seeded trials, and each experiment sweeps a parameter (search
    scheme, stop condition, compression, ...) that does not feed the
    overlay generator or the document placement.  Because {!Trial.build}
    derives one PRNG substream per subsystem from [(seed, trial)], the
    overlay graph is a pure function of the topology parameters and the
    content draw (query topic, placement, origin) is a pure function of
    the workload parameters — so sweep cells can share them instead of
    regenerating identical structures.  Networks are not cached: every
    trial builds its own in one flat pass, and installs a node's rows
    only when something reads that node (see {!Ri_p2p.Network.create}).

    Cached values must be treated as immutable: [Network.create] copies
    adjacency rows and projects summaries into its own arrays, and
    nothing may mutate a cached [Placement.t]'s summaries in place.

    A third table holds a result rather than an ingredient: the result
    count of a faulty trial's paired fault-free baseline
    ({!Trial.run_query_faulty}, {!Trial.run_recovery}).  That run is a
    pure function of the trial and of the configuration with its fault
    spec reduced to the drift and the query budget, so a fault sweep's
    loss levels and fallback policies share one baseline per (search,
    budget, trial) and each distinct baseline runs once.

    The cache is domain-safe (trials in a runner wave run concurrently)
    and memory-bounded; {!set_enabled} [false] disables it entirely. *)

type graph_key = {
  g_topology : Config.topology;
  g_num_nodes : int;
  g_fanout : int;
  g_exponent : float;
  g_seed : int;
  g_trial : int;
}

type content = {
  query_topics : Ri_content.Topic.id list;
  placement : Ri_content.Placement.t;
  origin : int;
}

type content_key = {
  c_num_nodes : int;
  c_topics : int;
  c_query_results : int;
  c_distribution : Ri_content.Placement.distribution;
  c_background : float;
  c_seed : int;
  c_trial : int;
}

val graph : graph_key -> (unit -> Ri_topology.Graph.t) -> Ri_topology.Graph.t
(** [graph key compute] returns the cached overlay for [key], calling
    [compute] on a miss.  [compute] runs outside the cache lock. *)

val content : content_key -> (unit -> content) -> content
(** Same, for the (query topics, placement, origin) draw. *)

type baseline_key = {
  b_trial : int;
  b_config : Config.t;
      (** the trial's configuration with its fault spec replaced by the
          clean spec: {!Ri_p2p.Fault.none} plus the faulty spec's
          [drift] and [query_budget] *)
}

val baseline : baseline_key -> (unit -> int) -> int
(** Same as {!graph}, for the paired clean baseline's result count.
    [compute] must be a function of the key alone. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Toggle at runtime (tests compare cached against fresh builds).  The
    cache starts enabled. *)

val clear : unit -> unit
(** Drop all entries and reset the hit/miss counters. *)

type stats = {
  graph_hits : int;
  graph_misses : int;
  content_hits : int;
  content_misses : int;
  network_hits : int;
      (** always 0, as is [network_misses]: networks are not cached.
          The ledger's [network_hit_ratio] still reads both. *)
  network_misses : int;
  baseline_hits : int;
  baseline_misses : int;
}

val stats : unit -> stats
