(** Scale sweep — throughput and memory as the network grows.

    Not a paper figure: measures the simulator itself.  For each network
    size it builds the rooted (query) and converged (update) networks
    once, then times repeated queries and update waves on them,
    reporting throughput, allocation, delta-encoded wire bytes, the flat
    RI store's resident footprint, peak heap and process RSS.  The sweep
    runs on the calling domain; the domain pool is not used. *)

val id : string

val title : string

val paper_claim : string

val default_sizes : int list
(** [2000; 10000; 50000; 100000]. *)

type point = {
  p_nodes : int;
  p_build_s : float;
      (** rooted pass (its rows installed by the first queries) plus
          converged construction *)
  p_queries_per_s : float;
      (** walks over one rooted network, which installs a node's rows
          on its first read: the first walks pay the installs on their
          paths *)
  p_query_minor_words : float;
      (** minor words allocated per query, those installs included *)
  p_waves_per_s : float;
  p_wave_minor_words : float;  (** minor words allocated per wave *)
  p_wire_bytes_per_wave : float;  (** delta-encoded bytes, {!Ri_p2p.Update} *)
  p_ri_bytes_per_node : float;  (** flat-store resident bytes, whole network *)
  p_top_heap_mb : float;
      (** [Gc.quick_stat].top_heap_words at the end of this size's
          measurement — process-wide and monotone, so later sizes
          include earlier ones' peak *)
  p_rss_mb : float option;  (** process resident set ({!Ri_util.Rss}) *)
}

val measure :
  base:Ri_sim.Config.t ->
  spec:Ri_sim.Runner.spec ->
  int ->
  point
(** One size: [spec.max_trials] timed queries and [spec.min_trials]
    timed update waves on freshly built networks of that many nodes.
    @raise Invalid_argument if the config is invalid or its fault plane
    is active (faults would perturb the throughput numbers). *)

val sweep :
  ?sizes:int list ->
  base:Ri_sim.Config.t ->
  spec:Ri_sim.Runner.spec ->
  unit ->
  point list
(** [sizes] defaults to {!default_sizes} capped at [base.num_nodes]
    (or just [base.num_nodes] when even the smallest default exceeds
    it). *)

val report_of : point list -> Report.t
(** The sweep's table, one row per size. *)

val json_of : point list -> string
(** The points as a JSON array, for [risim scale --json]; an RSS the
    platform cannot read serializes as [null]. *)

val run : base:Ri_sim.Config.t -> spec:Ri_sim.Runner.spec -> Report.t
(** Registry entry point: {!sweep} with default sizes, rendered. *)
