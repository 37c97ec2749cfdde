(** One simulation trial.

    Appendix A: "The simulator starts by generating a network topology.
    Then it distributes results among the nodes, picks at random a node
    that will initially receive the query or update, and creates the
    necessary RIs."  Each trial index derives an independent random
    stream from the configuration seed, so topology, placement and
    origin all vary between trials while whole experiments stay
    reproducible. *)

type setup = {
  network : Ri_p2p.Network.t;
  universe : Ri_content.Topic.t;
  query : Ri_content.Workload.query;
  origin : int;
  rng : Ri_util.Prng.t;  (** stream for in-trial randomness *)
  placement : Ri_content.Placement.t;
      (** the content behind the network's summaries; shared with the
          setup cache unless the trial was built with
          [mutable_placement] *)
}

val topology_graph : Config.t -> Ri_util.Prng.t -> Ri_topology.Graph.t
(** The configuration's overlay, drawn from [rng]: a random-label tree
    of fanout [F], the same tree plus [extra_links] cycle-closing links,
    or a power-law graph of outdegree exponent [o]. *)

(** Which RI construction the trial needs.

    [For_query] uses the paper simulator's rooted construction — RIs
    built downstream from the query originator (Appendix A).
    [For_update] needs rows in every direction, so it builds the
    converged network-wide state.  Either network is built fresh for
    every trial, and a node's rows are installed when something first
    reads them (see {!Ri_p2p.Network.create}) — a walk or a wave,
    inside that reader's own phase. *)
type purpose = For_query | For_update

val build :
  ?purpose:purpose ->
  ?perturb:float * Ri_content.Compression.error_kind ->
  ?mutable_placement:bool ->
  Config.t ->
  trial:int ->
  setup
(** Generate topology, placement, origin and RIs for trial [trial]
    (default purpose [For_query]).  [perturb] enables the Gaussian
    index-error model on every export (Appendix A's second error
    scenario).  [mutable_placement] (default [false]) deep-copies the
    cached placement's per-node arrays so the caller may mutate content
    mid-trial (the fault plane's result drift) without corrupting the
    setup cache.
    @raise Invalid_argument if the configuration is invalid. *)

type query_metrics = {
  messages : int;  (** forwards + returns + result messages *)
  forwards : int;
  returns : int;
  results : int;
  found : int;
  satisfied : bool;
  nodes_visited : int;
  bytes : float;  (** query traffic priced per the config's byte costs *)
}

val run_query : Config.t -> trial:int -> query_metrics
(** Build a trial and run one query from its origin using the configured
    search mechanism. *)

val run_query_on :
  ?on_event:(Ri_p2p.Query.event -> unit) ->
  ?decide:Ri_obs.Span.sink ->
  ?plan:Ri_p2p.Fault.t ->
  Config.t ->
  setup ->
  query_metrics
(** Run the configured search on an existing setup (lets one setup be
    shared across search mechanisms for paired comparisons).
    [on_event] observes every query message; {!run_query} wires it to
    {!query_hook} when the event log is on.  [decide], the trial's log
    sink, receives per-hop routing-decision provenance (see {!Ri_p2p.Query.run}; the
    sink is not passed to flooding, which makes no routing decisions).
    [plan] runs the query in a fault environment (see
    {!Ri_p2p.Fault}). *)

val query_hook :
  Ri_obs.Span.sink ->
  cat:string ->
  Ri_obs.Span.span ->
  (Ri_p2p.Query.event -> unit) option
(** [query_hook sink ~cat root] records each query message as a child
    span of [root]: [hop], [backtrack] and [results] under [cat];
    [retry], [gave_up] and [reconcile] under ["fault"].  [None] over a
    dead sink, so an unrecorded walk passes no observer at all. *)

val update_hook :
  Ri_obs.Span.sink ->
  cat:string ->
  Ri_obs.Span.span ->
  (Ri_p2p.Update.event -> unit) option * (unit -> unit)
(** [update_hook sink ~cat root] records each wave round as a child span
    of [root] and each delivery ([deliver] under [cat]; [drop], [delay]
    and [ae_repair] under ["fault"]) as a child of the open round, or of
    [root] before the first round.  The second component closes the
    trailing round span; call it once the waves are done. *)

val run_query_perturbed :
  Config.t ->
  relative_stddev:float ->
  kind:Ri_content.Compression.error_kind ->
  trial:int ->
  query_metrics
(** A query trial whose RIs were built under the Gaussian error model:
    every exported aggregate is perturbed by [N(0, (sd * entry)^2)],
    shaped positive / negative / signed per [kind], so errors compound
    from node to node as in a long-running approximate-index network. *)

type fault_metrics = {
  f_query : query_metrics;  (** the faulty query itself *)
  f_clean_found : int;
      (** results the paired fault-free baseline run found *)
  f_recall : float;
      (** [found / clean_found] — the fraction of the fault-free result
          count still located under faults ([1.] when the baseline
          found nothing) *)
  f_drift_messages : int;
      (** corrective update traffic from the pre-query result drift —
          background staleness cost, not charged to the query *)
  f_repair_messages : int;
      (** anti-entropy traffic triggered by the query's own contacts *)
  f_messages_per_result : float;
      (** (query messages + repair messages) / max found 1 *)
  f_stats : Ri_p2p.Fault.stats;  (** the plan's fault counters *)
}

val run_query_faulty : Config.t -> trial:int -> fault_metrics
(** One trial in the fault environment carried by [cfg.fault]: build
    the {e converged} network (corrective waves must be able to flow
    toward the origin, which the rooted construction cannot express),
    crash-stop the planned victims, relocate [drift * QR] results with
    fault-prone corrective waves so indices genuinely go stale, then
    run the query with timeouts, retries, stale-row fallback and lazy
    repair.  Recall is measured against a paired clean run of the same
    setup (same build, same drift, same query budget, zero fault
    rates).  That run depends on [cfg.fault] only through its [drift]
    and [query_budget], so {!Setup_cache.baseline} computes it once per
    distinct (clean configuration, trial): a sweep over loss levels or
    fallback policies reuses it, and with the cache disabled it is
    recomputed every time with identical results.  Deterministic for a given seed + spec
    at any pool width: the plan draws from its own [(seed, trial)]-keyed
    stream.
    @raise Invalid_argument when [cfg.fault] is inert. *)

type parallel_metrics = {
  par_messages : int;
  par_rounds : int;  (** response-time proxy: forwarding rounds *)
  par_found : int;
  par_satisfied : bool;
}

val run_query_parallel : Config.t -> branch:int -> trial:int -> parallel_metrics
(** Build a trial and run one query with parallel forwarding
    (Section 3.1), [branch] best neighbors per node per round.
    @raise Invalid_argument unless the config searches with an RI. *)

type update_metrics = {
  update_messages : int;
  update_bytes : float;
      (** messages priced at the paper's fixed per-message cost *)
  update_wire_bytes : int;
      (** simulated bytes under the sparse delta encoding — see
          {!Ri_p2p.Update} *)
}

val batch_summary :
  Config.t ->
  Ri_p2p.Network.t ->
  origin:int ->
  topic:int ->
  topic_total:float ->
  Ri_content.Summary.t
(** [origin]'s raw local summary with one update batch added to [topic]:
    [max 1 (round (update_fraction * topic_total))] new documents, where
    [topic_total] is the topic's network-wide count.  Sized to the topic,
    a batch clears the minUpdate significance floor near the origin.
    The update trials and the traffic sweep's interleaved waves both
    start their waves from it. *)

val run_update : Config.t -> trial:int -> update_metrics
(** Build a trial, add one update batch ({!batch_summary}) on a random
    topic at the origin, and propagate it through the network (Figure
    18's workload).  Zero messages on No-RI/flooding networks,
    which maintain no indices.  When [cfg.fault] is active the wave
    runs through a fault plan (losses, delays, crashed receivers). *)

val run_update_on :
  ?on_event:(Ri_p2p.Update.event -> unit) ->
  ?plan:Ri_p2p.Fault.t ->
  Config.t ->
  setup ->
  update_metrics

type recovery_metrics = {
  r_dip : query_metrics;  (** the query run against the damaged network *)
  r_restored : query_metrics;  (** the same query after heal + recovery *)
  r_clean_found : int;  (** the paired fault-free baseline's result count *)
  r_dip_recall : float;  (** [r_dip.found / r_clean_found] *)
  r_restored_recall : float;
      (** [r_restored.found / r_clean_found] — the acceptance target is
          a return to [1.0] once anti-entropy quiesces *)
  r_cut_size : int;  (** minority side of the partition (0 without one) *)
  r_recovered : int;  (** crash victims brought back *)
  r_ae_rounds : int;  (** anti-entropy rounds until a repair-free round *)
  r_ae_repairs : int;  (** total link repairs across those rounds *)
  r_recovery_messages : int;
      (** update messages spent on rejoin announcements + anti-entropy *)
  r_stats : Ri_p2p.Fault.stats;
}

val run_recovery : Config.t -> trial:int -> recovery_metrics
(** One damage → dip → heal → reconverge cycle.  Builds the converged
    network under [cfg.fault] (partition and/or crashes), persists each
    odd-numbered victim's pre-drift rows, drifts content through the
    faulty waves, and measures the {e dip} query.  Then heals the
    partition, enters quiesced mode (loss/delay/flap off, so
    reconvergence measures the repair machinery alone), recovers every
    victim ({!Ri_p2p.Churn.recover} — odd victims replay their stale
    image, even ones rejoin amnesiac), runs
    {!Ri_p2p.Update.anti_entropy} to a repair-free round (capped at 64),
    and measures the {e restored} query.  Recall for both queries is
    against the same clean baseline as {!run_query_faulty} — the same
    cache entry, so a sweep over partition sizes runs it once per
    search and trial.
    @raise Invalid_argument when [cfg.fault] is inert or the config does
    not search with an RI. *)
