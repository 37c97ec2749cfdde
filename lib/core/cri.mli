(** Compound Routing Index (Sections 4-5).

    One CRI lives at each node.  It holds a summary of the node's own
    local index plus, per neighbor, the aggregate summary of {e all}
    documents reachable through that neighbor, with no hop information:
    "we can access 1000 documents through C (i.e., there are 1000
    documents in C, G and H)".

    Aggregation for export "is done by adding all the vectors in the RI"
    (Section 4.2), excluding the row of the neighbor the export is sent
    to. *)

type t

val create :
  ?rows:int ->
  width:int ->
  local:Ri_content.Summary.t ->
  unit ->
  t
(** [width] is the topic-vector width (after any index compression);
    [rows] pre-sizes the row store (see {!Rowstore.create}).
    @raise Invalid_argument if the local summary's width differs. *)

val store : t -> Rowstore.t
(** The underlying row store. *)

val copy : t -> t
(** An independent clone sharing the (immutable) local summary and
    deep-copying the row store — see {!Rowstore.copy} for the
    iteration-order guarantee that keeps clones bit-identical. *)

val width : t -> int

val local : t -> Ri_content.Summary.t

val set_local : t -> Ri_content.Summary.t -> unit

val set_row : t -> peer:int -> Ri_content.Summary.t -> unit
(** Install or replace the row for [peer]. *)

val row : t -> peer:int -> Ri_content.Summary.t option

val remove_row : t -> peer:int -> unit
(** Forget a neighbor (e.g. on disconnection, Section 4.3).  No-op if
    absent. *)

val stamp_row : t -> peer:int -> int -> unit
(** Record the logical update-wave id that last wrote the peer's row
    (provenance lineage; see {!Rowstore.set_stamp}).  No-op when
    absent. *)

val row_stamp : t -> peer:int -> int
(** The recorded wave id; [0] for build-time or absent rows. *)

val peers : t -> int list
(** Neighbors with a row, in increasing id order. *)

val peer_count : t -> int
(** Number of neighbors with a row, without building the list. *)

val storage_words : t -> int
(** Float slots this index has allocated (local summary plus the flat
    row store's capacity) — the scale experiment's memory metric. *)

val export : t -> exclude:int option -> Ri_content.Summary.t
(** The aggregated RI sent to a neighbor: local summary plus every row
    except [exclude]'s.  In the paper's Figure 5, A aggregates rows
    A/B/C and sends D the vector (1400, 50, 380, 10, 90). *)

val export_all : t -> (int * Ri_content.Summary.t) list
(** [(peer, export ~exclude:peer)] for every peer, computed with one
    pass over the rows (the full aggregate minus each row), so hub nodes
    pay O(degree) rather than O(degree²). *)

val export_except :
  t -> except:int list -> (int -> Ri_content.Summary.t -> 'a) -> 'a list
(** [export_except t ~except f] is [f peer (export ~exclude:peer)] for
    every peer with a row not in [except], in increasing id order,
    without computing the excluded exports at all — bit-identical to
    filtering {!export_all} (each export depends only on the shared
    aggregate).  [f] wraps each export as it is built, so the result is
    the only list allocated. *)

val goodness : t -> peer:int -> query:int list -> float
(** {!Estimator.goodness} of the peer's row; [0.] for an unknown peer. *)

val iter_goodness : t -> query:int list -> (int -> float -> unit) -> unit
(** Call [f peer goodness] for every peer with a row, in unspecified
    order and without the per-peer lookup of {!goodness} — the
    forwarding hot path. *)
