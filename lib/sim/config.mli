(** Simulation configuration — the parameter table of Figure 12.

    {v
    Parameter           Description                                Base
    NumNodes            nodes in the network                       60000
    T                   topology                                   tree
    F                   branching factor (tree)                    4
    EL                  extra links added to create cycles         10
    o                   outdegree exponent (power law)             -2.2088
    QR                  query results available in the network     3125
    D                   document distribution                      80/20
    StopCondition       number of documents requested              10
    H                   horizon for HRIs                           5
    A                   decay (assumed fanout) for ERIs            4
    c                   RI compression                             0%
    minUpdate           minimum %-difference to propagate updates  1%
    Creationsize        RI creation/update message size            1000 B
    Querysize           query message size                         250 B
    v}

    The paper abstracts index categories; this reproduction fixes a
    topic universe of [topics] (default 30) so the compression sweep of
    Figure 15 has meaningful bucket counts at every level. *)

type topology =
  | Tree
  | Tree_with_cycles of { extra_links : int }
  | Power_law_graph

type search =
  | No_ri  (** random sequential forwarding *)
  | Ri of Ri_core.Scheme.kind
  | Flooding of { ttl : int option }  (** Gnutella baseline *)

type t = {
  num_nodes : int;
  topology : topology;
  fanout : int;  (** F, tree branching factor; also the RI cost-model fanout *)
  outdegree_exponent : float;  (** o, power-law topology *)
  topics : int;  (** size of the topic universe *)
  query_results : int;  (** QR *)
  distribution : Ri_content.Placement.distribution;  (** D *)
  background_per_node : float;
  stop_condition : int;
  horizon : int;  (** H, hop-count RIs *)
  eri_decay : float;  (** A, exponential RIs *)
  compression_ratio : float;  (** c, fraction of index entries saved *)
  compression_mode : Ri_content.Compression.error_kind;
  min_update : float;  (** minUpdate, as a fraction *)
  update_distance_floor : float;
      (** absolute Euclidean floor of the update-significance test
          ({!Ri_p2p.Network.create}'s [update_distance_floor]; the base
          value, [1.0], matches its default).  The recovery experiments
          set it to [0.] together with [min_update = 0.] so the
          post-heal fixpoint is exact. *)
  cycle_policy : Ri_p2p.Network.cycle_policy;
  search : search;
  bytes : Ri_p2p.Message.byte_costs;
  update_fraction : float;
      (** size of one update batch, as a fraction of the changed topic's
          network-wide document count.  The paper batches updates ("we
          may delay exporting an update for a short time so we can batch
          several updates"); a batch below the [minUpdate] significance
          floor would never leave the origin's vicinity. *)
  fault : Ri_p2p.Fault.spec;
      (** fault environment for {!Trial.run_query_faulty} and faulty
          updates; {!Ri_p2p.Fault.none} (the base value) leaves every
          code path bit-for-bit identical to the fault-free simulator *)
  fault_seed : int option;
      (** decouple the fault plan's PRNG from the topology [seed]
          ([--fault-seed]): the same fault schedule — kills, losses,
          partition shape draws — replays against different networks.
          [None] (the base value) derives the plan from [seed] as
          before. *)
  seed : int;
}

val base : t
(** Figure 12's base values with [num_nodes = 60000], searching with an
    ERI.  Simulation-only knobs: [topics = 30],
    [background_per_node = 2.0], [update_fraction = 0.05], [seed = 42]. *)

val scaled : t -> num_nodes:int -> t
(** Rescale the network, keeping QR at the paper's 5.2% of nodes
    ("[YGM01a] found that about 5.2% of the nodes of the Gnutella
    network will have an answer for a given query"). *)

val scaled_links : t -> paper_links:int -> int
(** Translate an added-link count quoted at the paper's 60000-node scale
    to this configuration's network size, preserving cycle {e density}
    (links per node).  Figures 16 and 19 sweep up to 10000 added links
    on 60000 nodes — a mean degree of 2.3; keeping the absolute count on
    a smaller network would instead push the mean degree past the RI
    fanout, where exponential damping no longer wins.  Identity at
    [num_nodes = 60000]; never rounds a positive count to zero. *)

val with_search : t -> search -> t

val with_topology : t -> topology -> t

val scheme_kind : t -> Ri_core.Scheme.kind option
(** The RI kind in play, [None] for No-RI and flooding. *)

val cri : Ri_core.Scheme.kind

val hri : t -> Ri_core.Scheme.kind
(** HRI with the config's horizon and fanout. *)

val eri : t -> Ri_core.Scheme.kind
(** ERI with the config's decay. *)

val hybrid : t -> Ri_core.Scheme.kind
(** The Section 6.2 hybrid CRI-HRI with the config's horizon and
    fanout. *)

val compression : t -> Ri_content.Compression.t

val search_name : search -> string

val topology_name : topology -> string

val validate : t -> (unit, string) result
(** Static sanity checks, including the CRI/no-op/cycles exclusion and
    a cycle-link count the tree cannot hold: [extra_links] must lie in
    [0, (n-1)(n-2)/2], the pairs an [n]-node tree leaves unlinked. *)

val pp : Format.formatter -> t -> unit
