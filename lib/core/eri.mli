(** Exponentially aggregated Routing Index (Section 6.2).

    Per neighbor, a single summary whose entries are already discounted
    by the regular-tree cost model: the stored value for topic [T]
    through neighbor [v] is [Σ_j goodness(N[j], T) / F^(j-1)] over every
    hop [j] reachable through [v] — "with the exponential RI we can keep
    information for all nodes accessible from each neighbor", unlike the
    horizon-limited HRI, at the cost of some accuracy.

    Export (update, Section 6.2): "adds up all rows (except the one
    associated with the neighbor to which the update vector is sent),
    multiplies the resulting vector by 1/F, and adds the goodness of the
    summary of its local index". *)

type t

val create :
  ?rows:int ->
  fanout:float ->
  width:int ->
  local:Ri_content.Summary.t ->
  unit ->
  t
(** [fanout] is the assumed regular-tree fanout [F] (the paper's "decay
    for ERIs", 4 in the base configuration); [rows] pre-sizes the row
    store (see {!Rowstore.create}).
    @raise Invalid_argument unless [fanout > 1], [width > 0] and the
    local summary width matches. *)

val store : t -> Rowstore.t
(** The underlying row store. *)

val copy : t -> t
(** Independent clone; see {!Cri.copy}. *)

val fanout : t -> float

val width : t -> int

val local : t -> Ri_content.Summary.t

val set_local : t -> Ri_content.Summary.t -> unit

val set_row : t -> peer:int -> Ri_content.Summary.t -> unit

val row : t -> peer:int -> Ri_content.Summary.t option

val remove_row : t -> peer:int -> unit

val peers : t -> int list

val stamp_row : t -> peer:int -> int -> unit
(** Record the logical update-wave id that last wrote the peer's row
    (provenance lineage; see {!Rowstore.set_stamp}).  No-op when
    absent. *)

val row_stamp : t -> peer:int -> int
(** The recorded wave id; [0] for build-time or absent rows. *)

val peer_count : t -> int

val storage_words : t -> int
(** Float slots this index has allocated (local summary plus the flat
    row store's capacity) — the scale experiment's memory metric. *)

val export : t -> exclude:int option -> Ri_content.Summary.t
(** [local + (Σ rows except exclude) / F]. *)

val export_all : t -> (int * Ri_content.Summary.t) list

val export_except :
  t -> except:int list -> (int -> Ri_content.Summary.t -> 'a) -> 'a list
(** [f peer (export ~exclude:peer)] for every peer with a row not in
    [except], in increasing id order (see {!Cri.export_except}). *)

val goodness : t -> peer:int -> query:int list -> float
(** {!Estimator.goodness} applied to the (discounted) row; for a
    single-topic query this is exactly the stored entry, e.g. 16.33 for
    "DB" through X in the paper's Figure 9. *)

val iter_goodness : t -> query:int list -> (int -> float -> unit) -> unit
(** [f peer goodness] for every peer with a row, in unspecified order,
    skipping the per-peer lookup of {!goodness}. *)
