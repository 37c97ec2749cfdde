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

type forest = {
  order : int array;
      (** The visit order: the reached nodes in [order.(0 .. reached - 1)];
          later slots are not part of the forest. *)
  reached : int;
  parent : int array;
      (** Each node's parent, [-1] for a root and [-2] for a node no root
          reached. *)
}
(** A breadth-first forest. *)

val bfs : ?root:int -> n:int -> (int -> int array) -> forest
(** [bfs ?root ~n neighbours] grows a FIFO breadth-first forest over
    nodes [0 .. n-1], whose links are given by [neighbours v].  With
    [root] it grows one tree from [root] alone; without, it grows a tree
    from every node no earlier tree reached, in ascending id, so each
    component's root is its least id and the components follow one
    another in [order] in ascending order of their roots.  A node's row
    is read in its own order, and a node is reached through the first
    row that names it: its parent is the first node before it in
    [order] whose row holds it, so its tree path to its root is a
    shortest one.  Parents come before their children in [order].
    Allocates [order] and [parent] and nothing else of size [n].
    @raise Invalid_argument if [root] is out of range. *)

val depths_in_place : forest -> int array
(** Overwrites the forest's [parent] array with each node's hop count
    from its root, [max_int] for an unreached node, and returns it. *)

val bfs_distances : t -> int -> int array
(** [bfs_distances g src] gives hop counts from [src]; unreachable nodes
    get [max_int]. *)

val is_connected : t -> bool

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
