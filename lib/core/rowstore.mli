(** Flat structure-of-arrays storage for routing-index rows.

    One contiguous float array per node holds all peer rows; each row
    is [stride] consecutive cells at the offset returned by {!find} /
    {!ensure}.  Rows are addressed through a peer -> slot table whose
    iteration order deliberately mirrors the per-peer hash tables this
    store replaced, so aggregation (float summation) order — and with it
    every figure in the paper reproduction — is bit-for-bit unchanged.

    Each cell is one IEEE double, exposed raw through {!data} so the
    arithmetic kernels ([Ri_util.Vecf] slice operations,
    [Estimator.goodness_flat]) run over it with zero intermediate
    allocation.  A reference obtained from {!data} is invalidated by any
    subsequent {!ensure} that grows the store. *)

type t

val create : ?rows:int -> stride:int -> unit -> t
(** An empty store whose rows are [stride] cells wide.  [rows] (default
    4, minimum 1) pre-sizes the backing buffer; pass the node's expected
    peer count (its overlay degree) to avoid both regrowth copies and
    slack slots.
    @raise Invalid_argument if [stride <= 0]. *)

val stride : t -> int

val data : t -> float array
(** The current backing array.  Offsets from {!find}/{!ensure}/{!iter}
    index into it.  Invalidated by growth — do not hold across
    {!ensure}. *)

val count : t -> int
(** Number of rows present. *)

val find : t -> int -> int option
(** Offset of the peer's row, if present. *)

val ensure : t -> int -> int
(** Offset of the peer's row, allocating a zeroed row (recycling freed
    slots, growing the backing buffer as needed) when absent. *)

val reset : t -> unit
(** Drop every row, keeping the backing buffers: afterwards the store
    iterates any insert sequence exactly as a fresh {!create} fed the
    same sequence does (same peer-table state, same initial size). *)

val remove : t -> int -> unit
(** Drop the peer's row and recycle its slot (zeroed).  No-op when
    absent. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f peer offset] for every row, in the peer table's
    iteration order — the order float aggregation must use to stay
    bit-identical with the boxed representation. *)

val iteration_peers : t -> int array
(** The peers exactly as {!iter} will visit them. *)

val load_row : t -> peer:int -> float array -> pos:int -> unit
(** [load_row t ~peer src ~pos] stores [src.(pos .. pos+stride-1)] as
    the peer's row, allocating the row when absent — {!ensure} then one
    blit, without a staging copy. *)

val set_stamp : t -> int -> int -> unit
(** [set_stamp t peer wave] records the logical update-wave id that last
    wrote the peer's row — provenance lineage for the observability
    plane.  No-op when the peer has no row. *)

val stamp : t -> int -> int
(** The wave id recorded by {!set_stamp}; [0] for rows untouched since
    construction or peers without a row.  Stamps move with growth and
    reset to 0 on {!remove}. *)

val peers : t -> int list
(** Peers with a row, in increasing id order. *)

val map_sorted : t -> except:int list -> (int -> int -> 'a) -> 'a list
(** [map_sorted t ~except f] is [[f peer offset; ...]] over the peers
    with a row that are not in [except], in increasing id order — the
    per-peer export lists, built in one pass.  [f] runs in decreasing
    id order, so it must not depend on earlier calls. *)

val capacity_words : t -> int
(** Allocated backing size in cells (8-byte words). *)

val capacity_bytes : t -> int
(** Allocated backing size in bytes, 8 per cell — the scale
    experiment's bytes-per-node metric. *)
