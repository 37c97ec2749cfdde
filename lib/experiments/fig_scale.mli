(** Scale sweep — throughput and memory as the network grows.

    Not a paper figure: measures the simulator itself.  For each network
    size it builds the rooted (query) and converged (update) networks
    once, then times repeated queries and update waves on them,
    reporting throughput, allocation, delta-encoded wire bytes, the flat
    RI store's resident footprint, peak heap and process RSS — plus,
    on request, cache-cold build times at pool vs single-core width
    (the intra-trial parallelism speedup), snapshot save/load times,
    and the quantized-rowstore accuracy/size tradeoff. *)

val id : string

val title : string

val paper_claim : string

val default_sizes : int list
(** [2000; 10000; 50000; 100000]. *)

val big_sizes : int list
(** [100_000; 250_000; 500_000; 1_000_000] — the [--big] plane; the
    100k overlap point ties the two sweeps together. *)

type opts = {
  o_compress : int option;
      (** quantize RI cells to this many bits and report the
          accuracy/size tradeoff against the exact store *)
  o_snapshot : string option;
      (** directory for snapshot save/load round-trip timing *)
  o_par_compare : bool;
      (** additionally time a cache-cold converged build on the process
          pool and on one core *)
}

val default_opts : opts
(** Everything off — the legacy sweep. *)

type compress_point = {
  c_bits : int;
  c_rel_err_bound : float;  (** worst-case per-cell decode error *)
  c_bytes_per_node : float;  (** quantized peer-row store (local row excluded) *)
  c_exact_bytes_per_node : float;  (** same network, exact peer-row store *)
  c_found_quant : int;  (** results found across the probe queries *)
  c_found_exact : int;
}

type point = {
  p_nodes : int;
  p_build_s : float;  (** rooted + converged construction, RIs included *)
  p_build_par_s : float option;  (** cache-cold build, process pool *)
  p_build_seq_s : float option;  (** cache-cold build, one core *)
  p_queries_per_s : float;
  p_query_minor_words : float;  (** minor words allocated per query *)
  p_waves_per_s : float;
  p_wave_minor_words : float;  (** minor words allocated per wave *)
  p_wire_bytes_per_wave : float;  (** delta-encoded bytes, {!Ri_p2p.Update} *)
  p_ri_bytes_per_node : float;  (** flat-store resident bytes, whole network *)
  p_top_heap_mb : float;
      (** [Gc.quick_stat].top_heap_words at the end of this size's
          measurement — process-wide and monotone, so later sizes
          include earlier ones' peak *)
  p_rss_mb : float option;  (** process resident set ({!Ri_util.Rss}) *)
  p_snap_save_ms : float option;
  p_snap_load_ms : float option;
  p_compress : compress_point option;
}

val measure :
  ?opts:opts ->
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
  ?opts:opts ->
  base:Ri_sim.Config.t ->
  spec:Ri_sim.Runner.spec ->
  unit ->
  point list
(** [sizes] defaults to {!default_sizes} capped at [base.num_nodes]
    (or just [base.num_nodes] when even the smallest default exceeds
    it). *)

val report_of : point list -> Report.t
(** The main table; pool/1-core and snapshot columns appear only when
    some point carries them. *)

val compress_report_of : point list -> Report.t
(** The accuracy/size table for points measured with [o_compress];
    empty-bodied when none were. *)

val json_of : point list -> string
(** The points as a JSON array, for [risim scale --json]; optional
    measurements serialize as [null] (or a nested ["compress"]
    object). *)

val run : base:Ri_sim.Config.t -> spec:Ri_sim.Runner.spec -> Report.t
(** Registry entry point: {!sweep} with default sizes, rendered. *)
