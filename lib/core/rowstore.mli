(** Flat structure-of-arrays storage for routing-index rows.

    One contiguous backing buffer per node holds all peer rows; each row
    is [stride] consecutive cells at the offset returned by {!find} /
    {!ensure}.  Rows are addressed through a peer -> slot table whose
    iteration order deliberately mirrors the per-peer hash tables this
    store replaced, so aggregation (float summation) order — and with it
    every figure in the paper reproduction — is bit-for-bit unchanged.

    Two cell formats share this interface:

    - exact (default): one IEEE double per cell, exposed raw through
      {!data} so the arithmetic kernels ([Ri_util.Vecf] slice
      operations, [Estimator.goodness_flat]) run over it with zero
      intermediate allocation.  A reference obtained from {!data} is
      invalidated by any subsequent {!ensure} that grows the store.

    - quantized ({!quant_config}): log-scale bucketed topic counts
      bit-packed at [bits] per cell — the paper's §6 compression
      argument applied to the resident store.  Rows are read through
      {!decode_row} (typically into the per-domain {!scratch}) and
      written through {!encode_row}; {!data} raises.  Relative cell
      error is bounded by {!quant_rel_error_bound}. *)

type t

(** Log-scale quantization parameters: cell [v > 0] is stored as
    [round(log1p v / gamma)] in [bits] bits where
    [gamma = log1p vmax / (2^bits - 1)]; [v <= 0] is stored as exact
    zero.  Codes decode through a precomputed [expm1] table, so
    [encode (decode k) = k] — re-encoding a decoded row is lossless. *)
type quant_config = { bits : int;  (** cell width, 1..16 *) vmax : float }

val default_quant : quant_config
(** 8 bits, [vmax = 1e9]: ~7% worst-case relative cell error, 8x
    smaller rows than exact. *)

val create : ?rows:int -> ?quant:quant_config -> stride:int -> unit -> t
(** An empty store whose rows are [stride] cells wide.  [rows] (default
    4, minimum 1) pre-sizes the backing buffer; pass the node's expected
    peer count (its overlay degree) to avoid both regrowth copies and
    slack slots.  [quant] selects the bit-packed format.
    @raise Invalid_argument if [stride <= 0] or [quant] is out of
    range. *)

val copy : t -> t
(** An independent clone: one blit of the backing cells; the peer table
    is shared copy-on-write and re-copied structurally ([Hashtbl.copy])
    only if either side later inserts or removes a row.  Iteration
    order — and with it every aggregation's summation order — is
    bit-for-bit the original's in both regimes.  O(capacity), no
    per-row boxing, and no table cost for clones that only rewrite
    existing rows (a converged network's update waves). *)

val stride : t -> int

val data : t -> float array
(** The current backing array of an exact store.  Offsets from
    {!find}/{!ensure}/{!iter} index into it.  Invalidated by growth — do
    not hold across {!ensure}.
    @raise Invalid_argument on a quantized store ({!quantized}). *)

val quantized : t -> bool

val quant : t -> quant_config option
(** The quantizer in effect, [None] for exact stores. *)

val count : t -> int
(** Number of rows present. *)

val mem : t -> int -> bool

val find : t -> int -> int option
(** Offset of the peer's row, if present. *)

val ensure : t -> int -> int
(** Offset of the peer's row, allocating a zeroed row (recycling freed
    slots, growing the backing buffer as needed) when absent. *)

val reset : t -> unit
(** Drop every row, keeping the backing buffers: afterwards the store
    iterates any insert sequence exactly as a fresh {!create} fed the
    same sequence does (same peer-table state, same initial size).  A
    peer table shared with {!copy} clones is replaced, not cleared. *)

val remove : t -> int -> unit
(** Drop the peer's row and recycle its slot (zeroed).  No-op when
    absent. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f peer offset] for every row, in the peer table's
    iteration order — the order float aggregation must use to stay
    bit-identical with the boxed representation.  A store rebuilt by
    {!of_loaded} instead replays the explicit peer order recorded at
    save time, which is that table's live order by construction. *)

val iteration_peers : t -> int array
(** The peers exactly as {!iter} will visit them — recorded into
    snapshots so {!of_loaded} can replay the order. *)

val decode_row : t -> int -> float array -> unit
(** [decode_row t off dst] expands the row at offset [off] into
    [dst.(0 .. stride-1)] ([dst] must be at least [stride] long) —
    a plain blit on exact stores, a table-driven unpack on quantized
    ones. *)

val encode_row : t -> int -> float array -> unit
(** [encode_row t off src] stores [src.(0 .. stride-1)] as the row at
    offset [off], quantizing if the store is quantized. *)

val load_row : t -> peer:int -> float array -> pos:int -> unit
(** [load_row t ~peer src ~pos] stores [src.(pos .. pos+stride-1)] as
    the peer's row, allocating the row when absent — {!ensure} then
    {!encode_row}, without a staging copy. *)

val scratch : t -> float array
(** A per-domain decode buffer of at least [stride t] cells, for
    transient {!decode_row} results consumed before the next call on
    the same domain.  Distinct domains get distinct buffers, so pool
    workers may decode concurrently. *)

val quant_rel_error_bound : quant_config -> float
(** Worst-case relative error of one decode(encode) round trip for
    cells in [(0, vmax]]: [expm1 (gamma / 2)]. *)

val set_stamp : t -> int -> int -> unit
(** [set_stamp t peer wave] records the logical update-wave id that last
    wrote the peer's row — provenance lineage for the observability
    plane.  No-op when the peer has no row. *)

val stamp : t -> int -> int
(** The wave id recorded by {!set_stamp}; [0] for rows untouched since
    construction or peers without a row.  Stamps survive {!copy}, move
    with growth, and reset to 0 on {!remove}. *)

val peers : t -> int list
(** Peers with a row, in increasing id order. *)

val map_sorted : t -> except:int list -> (int -> int -> 'a) -> 'a list
(** [map_sorted t ~except f] is [[f peer offset; ...]] over the peers
    with a row that are not in [except], in increasing id order — the
    per-peer export lists, built in one pass.  [f] runs in decreasing
    id order, so it must not depend on earlier calls. *)

val capacity_words : t -> int
(** Allocated backing size in 8-byte words (exact: array length in
    cells; quantized: packed bytes rounded up) — kept for the
    storage-words accounting in the schemes. *)

val capacity_bytes : t -> int
(** Allocated backing size in bytes — the honest footprint for the
    scale experiment's bytes-per-node metric (8 x cells when exact,
    packed-code bytes when quantized). *)

(** {2 Snapshot support}

    Raw access to the packed representation, used only by the snapshot
    writer/loader. *)

val row_code_bytes : t -> int
(** Packed bytes per row of a quantized store.
    @raise Invalid_argument on an exact store. *)

val blit_row_codes : t -> int -> bytes -> int -> unit
(** [blit_row_codes t off dst dpos] copies the packed codes of the row
    at offset [off] into [dst] at [dpos].
    @raise Invalid_argument on an exact store. *)

val of_loaded :
  stride:int ->
  ?quant:quant_config ->
  peers:int array ->
  stamps:int array ->
  [ `Floats of float array | `Codes of bytes ] ->
  t
(** Rebuild a store from snapshot sections: [peers] lists the rows in
    their recorded iteration order (slot [i] belongs to [peers.(i)]),
    [stamps] carries the per-row wave stamps, and the payload holds the
    rows back to back — [`Floats] of length [n * stride] for exact
    stores, [`Codes] of [n * row_code_bytes] for quantized ones.
    {!iter} on the result visits [peers] in the given order, preserving
    the saved store's float summation order bit for bit.
    @raise Invalid_argument on length mismatches, duplicate peers, or a
    payload that contradicts [quant]. *)
