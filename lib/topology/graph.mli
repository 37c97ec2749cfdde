(** Undirected simple graphs over nodes [0 .. n-1].

    The P2P overlay of the paper: nodes are peers, edges are neighbor
    links.  Graphs are immutable once built; construction goes through
    {!of_edges} or {!Builder}.  Adjacency is stored as sorted int arrays,
    giving cache-friendly neighbor iteration for the simulator's hot
    loops. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds the graph.  Self-loops and duplicate edges
    are rejected.  @raise Invalid_argument on out-of-range endpoints,
    self-loops or duplicates. *)

val of_sorted_adjacency : int array array -> t
(** [of_sorted_adjacency adj] adopts [adj] directly as the adjacency
    structure — the zero-copy path for generators that can emit each
    node's sorted row independently.  The result is identical to
    {!of_edges} over the same edge set, since sorted adjacency is a
    function of the edge set alone.  Rows must be strictly ascending
    and mutually symmetric; symmetry is the caller's obligation and is
    not checked.  The arrays are owned by the graph afterwards.
    @raise Invalid_argument on empty input, out-of-range ids,
    self-loops, unsorted rows, or an odd half-edge total. *)

val n : t -> int
(** Number of nodes. *)

val edge_count : t -> int
(** Number of (undirected) edges. *)

val neighbors : t -> int -> int array
(** Sorted neighbor ids.  The returned array is owned by the graph; do
    not mutate it. *)

val degree : t -> int -> int

val has_edge : t -> int -> int -> bool
(** Binary search over the adjacency row. *)

val edges : t -> (int * int) list
(** Every edge once, as [(u, v)] with [u < v]. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over edges, each visited once with [u < v]. *)

val iter_nodes : (int -> unit) -> t -> unit

val bfs_distances : t -> int -> int array
(** [bfs_distances g src] gives hop counts from [src]; unreachable nodes
    get [max_int]. *)

val bfs_parents : t -> int -> int array
(** First-arrival BFS tree from [src]: [parents.(src) = src], parent of
    an unreachable node is [-1].  Ties between equal-distance parents are
    broken toward the smaller node id, making the tree deterministic. *)

val is_connected : t -> bool

val component_representatives : t -> int list
(** One node id per connected component. *)

val spanning_tree_edges : t -> (int * int) list
(** Edges of a BFS spanning forest (rooted at node 0 and at each later
    component representative). *)

module Builder : sig
  type graph := t

  type t

  val create : n:int -> t

  val add_edge : t -> int -> int -> bool
  (** Adds the edge unless it exists or is a self-loop; returns whether it
      was added.  @raise Invalid_argument on out-of-range endpoints. *)

  val has_edge : t -> int -> int -> bool

  val edge_count : t -> int

  val degree : t -> int -> int

  val to_graph : t -> graph
end
