(** The P2P network: overlay links, per-node content, and routing
    indices.

    A network couples a topology with per-node document collections and,
    unless it runs index-free (No-RI), one routing index per node.
    {!create} builds the RIs in their {e converged} state — the fixed
    point the distributed creation algorithm of Figure 6 reaches — using
    an exact two-pass computation on trees and the strategy implied by
    the configured cycle policy on cyclic graphs (see {!cycle_policy}).
    Incremental changes (document updates, joins, leaves) are then
    propagated message-by-message by {!Update} and {!Churn}, which is
    what the paper's update-cost experiments measure.

    Index compression (approximate indices, Section 8.2) is applied at
    the source: local summaries are projected into bucket space before
    they enter any RI, and queries are projected the same way at ranking
    time, so consolidation errors flow through aggregation exactly as in
    a real deployment. *)

(** How cycles in the overlay are handled (Section 7).

    [Detect_recover] — creation and update waves carry the originator's
    message id; a node reached a second time does not forward further.
    Converged RIs are exact over a breadth-first spanning tree, and each
    remaining (cycle-closing) link carries the one export that crossed it
    during the first wave.

    [No_op] — cycles are ignored.  Converged RIs are the fixed point of
    the export equations over {e all} links, found by synchronous
    iteration; the exponential decay (ERI) or the horizon (HRI) makes the
    iteration converge, while a compound RI on a cyclic network has no
    fixed point — "the compound RI algorithms can be trapped in an
    infinite loop" — and is rejected. *)
type cycle_policy = No_op | Detect_recover

(** How the initial RI state is computed.

    [Converged] — the resting state of the distributed Figure 6
    algorithm on a long-running network: the exact fixed point on trees;
    on cyclic overlays, exact over a BFS spanning tree with each
    cycle-closing link carrying the one export that crossed it during
    the first creation wave.  (A strict fixed point over every link need
    not exist on cyclic overlays — an undamped CRI diverges on any
    cycle, and even damped schemes diverge when node degrees exceed the
    assumed fanout — so update waves judge significance against
    sender-carried baselines; see {!Update}.)

    [Rooted origin] — the paper's simulator construction (Appendix A):
    "we use a version of the algorithm that only updates RI entries for
    neighbors downstream from the node picked as the originator of the
    query".  Each node holds rows only for neighbors one BFS level
    further from [origin]; a row aggregates the neighbor's whole
    downstream reach, and a node reachable from two same-level parents
    is counted in both — the overcount the paper attributes to cycles,
    and the reason queries can reach a node twice.  Equal-depth
    neighbors hold each other's reach.  On a tree this coincides with
    [Converged] restricted to the directions a query from [origin] can
    take.

    Either way the rows are computed in one pass and a node's rows are
    installed on its first read (see {!create}). *)
type build_mode = Converged | Rooted of int

type content = {
  summary : int -> Ri_content.Summary.t;
      (** raw (uncompressed) local-index summary of a node *)
  count_matching : int -> Ri_content.Topic.id list -> int;
      (** ground-truth matching documents at a node for a query *)
}

val content_of_local_indices : Ri_content.Local_index.t array -> content

val content_of_placement : Ri_content.Placement.t -> content
(** Content view of a bulk placement; [count_matching] answers for the
    placement's query (the one the trial runs) regardless of the topic
    list passed. *)

type t

val create :
  graph:Ri_topology.Graph.t ->
  content:content ->
  ?scheme:Ri_core.Scheme.kind ->
  ?compression:Ri_content.Compression.t ->
  ?cycle_policy:cycle_policy ->
  ?min_update:float ->
  ?update_distance_floor:float ->
  ?perturb:float * Ri_content.Compression.error_kind ->
  ?rng:Ri_util.Prng.t ->
  ?mode:build_mode ->
  unit ->
  t
(** [create ~graph ~content ()] builds the network.  Omitting [scheme]
    yields a No-RI network (random forwarding only).  [min_update]
    (default [0.01], the paper's 1%) bounds both the fixed-point
    iteration and later update propagation.  [perturb] enables the
    Gaussian error model on exports.  [rng] (default a fixed seed) feeds
    perturbation draws.  [mode] defaults to [Converged].
    [update_distance_floor] (default [1.0]) is the absolute Euclidean
    threshold below which a row change is never "different enough" to
    re-propagate (Section 6.2: "for example by requiring that the
    Euclidean distance between the two vectors is greater than a certain
    number"); it keeps geometrically decayed residues from ringing
    around the network.

    Both builds are one sequential pass into flat arrays; trials, not
    builds, are what runs in parallel.  A [Converged] build is an up
    and a down pass over a BFS spanning forest, then the crossings of
    the cycle-closing links, staging every directed link's row.  A
    [Rooted] build computes every reachable node's downstream reach.
    No node's index exists yet: the first read of a node — {!ri}, the
    exports, {!set_local_summary} — installs that node's rows alone
    (rooted: deeper neighbors first, then equal-depth ones; converged:
    in the order an eager build inserts them), so a query or an update
    wave pays only for the nodes it reaches.  {!storage_words},
    {!add_link} and {!remove_link} install every pending node first.
    The rows are bit-for-bit those an eager build would hold, whatever
    the install order, and the flat arrays are dropped once every node
    is installed.  Since a first read writes the network, a network is
    single-domain until it is fully installed.
    @raise Invalid_argument for CRI + [No_op] on a cyclic graph in
    [Converged] mode, or an out-of-range [Rooted] origin (checked for
    every scheme, No-RI included, before anything is allocated). *)

val storage_words : t -> int
(** Approximate resident size in words (adjacency + RI stores +
    locals), every node installed. *)

(** {2 Structure} *)

val size : t -> int

val neighbors : t -> int -> int array

val degree : t -> int -> int

val has_link : t -> int -> int -> bool

val scheme : t -> Ri_core.Scheme.kind option

val cycle_policy : t -> cycle_policy

val min_update : t -> float

val update_distance_floor : t -> float

val ri : t -> int -> Ri_core.Scheme.t
(** The node's routing index.  The first read of a node installs its
    rows (counted by [ri_rooted_installs_total] or
    [ri_converged_installs_total]), charged to whatever phase is
    reading.
    @raise Invalid_argument on a No-RI network. *)

val has_ri : t -> bool

(** {2 Content access} *)

val local_summary : t -> int -> Ri_content.Summary.t
(** The node's {e projected} (bucket-space) local summary as currently
    known to the RI layer. *)

val raw_local_summary : t -> int -> Ri_content.Summary.t
(** The node's uncompressed summary, straight from the content
    provider. *)

val count_matching : t -> int -> Ri_content.Topic.id list -> int

val project_query : t -> Ri_content.Topic.id list -> int list
(** Translate query topics into the RI layer's (possibly compressed)
    vector space. *)

val refresh_local : t -> int -> unit
(** Re-read the node's content summary (after documents were added or
    removed) into its RI.  Propagation to neighbors is separate — call
    {!Update.propagate}. *)

val set_local_summary : t -> int -> Ri_content.Summary.t -> unit
(** Install a new (uncompressed) local summary for the node, projecting
    it through the configured compression — used when experiments
    synthesise local-index changes without going through the content
    provider.  Propagation is separate, as with {!refresh_local}. *)

val outgoing_exports : t -> int -> (int * Ri_core.Scheme.payload) list
(** The aggregated RIs node [v] would send to each neighbor right now,
    with the Gaussian perturbation applied when configured.  Empty on a
    No-RI network. *)

val outgoing_exports_except :
  t -> int -> except:int list -> (int * Ri_core.Scheme.payload) list
(** {!outgoing_exports} restricted to neighbors not in [except] — the
    wave hot path, which never sends an update back to its sender.
    Without perturbation the excluded exports are never computed;
    with it they are computed and dropped so the perturbation rng
    stream is unchanged.  Bit-identical to filtering
    {!outgoing_exports} either way. *)

val export_to : t -> int -> peer:int -> Ri_core.Scheme.payload
(** One outgoing export, perturbed when configured. *)

(** {2 Topology mutation (churn support)} *)

val add_link : t -> int -> int -> unit
(** Adjacency only; RI bookkeeping is {!Churn.connect}'s job.
    @raise Invalid_argument if the link exists or endpoints are equal. *)

val remove_link : t -> int -> int -> unit
(** @raise Invalid_argument if the link does not exist. *)

(** {2 Diagnostics} *)

val fresh_wave : t -> int
(** Draw the next logical update-wave id (1, 2, ...) for provenance
    lineage: [Update.wave] calls this once per wave and stamps the RI
    rows it rewrites ({!Scheme.stamp_row}).  Per instance, so each
    trial's network counts from 1 on any pool worker. *)

val rng : t -> Ri_util.Prng.t

val compression : t -> Ri_content.Compression.t
(** The index-compression model summaries are projected through. *)
