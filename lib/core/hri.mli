(** Hop-count Routing Index (Section 6.1).

    Per neighbor, the HRI stores one summary {e per hop} up to a maximum
    number of hops, the {e horizon}: entry [h] (1-based) counts the
    documents exactly [h] forwardings away through that neighbor, so
    entry 1 is the neighbor's own collection.  "Note that we do not have
    information beyond the horizon with this kind of RI."

    Export (creation/update, Section 6.1): build the aggregate as for a
    compound RI, "then it shifts the columns to the right, so the entries
    for 1 hop become the entries for 2 hops ... The entries in the last
    column of the original RI are discarded and the summary of the local
    index is placed as the first column".

    Goodness uses the regular-tree cost model: [goodness_hc(N_i, Q) =
    Σ_{j=1..h} goodness(N_i[j], Q) / F^(j-1)]. *)

type t

val create :
  ?rows:int ->
  horizon:int ->
  cost:Cost_model.t ->
  width:int ->
  local:Ri_content.Summary.t ->
  unit ->
  t
(** [rows] pre-sizes the row store (see {!Rowstore.create}).
    @raise Invalid_argument if [horizon <= 0], [width <= 0] or the local
    summary's width differs. *)

val create_hybrid :
  ?rows:int ->
  horizon:int ->
  cost:Cost_model.t ->
  width:int ->
  local:Ri_content.Summary.t ->
  unit ->
  t
(** The {e hybrid CRI-HRI} the paper sketches in Section 6.2 ("a hybrid
    CRI-HRI overcomes this disadvantage"): rows carry one extra slot
    that aggregates every document {e beyond} the horizon, compound-RI
    style.  On export the column that would fall off the horizon merges
    into the tail instead of being discarded, so no information is ever
    lost; goodness discounts the tail at [horizon + 1] hops. *)

val copy : t -> t
(** Independent clone; see {!Cri.copy}. *)

val store : t -> Rowstore.t
(** The underlying row store. *)

val has_tail : t -> bool

val row_length : t -> int
(** Slots per row: [horizon], plus one when the hybrid tail is on. *)

val horizon : t -> int

val cost_model : t -> Cost_model.t

val width : t -> int

val local : t -> Ri_content.Summary.t

val set_local : t -> Ri_content.Summary.t -> unit

val set_row : t -> peer:int -> Ri_content.Summary.t array -> unit
(** The array has one summary per hop, length = {!row_length}, index
    [h-1] for hop [h] (the last slot is the beyond-horizon tail when the
    hybrid mode is on).
    @raise Invalid_argument on wrong length or width. *)

val row : t -> peer:int -> Ri_content.Summary.t array option
(** A fresh copy of the stored row, boxed out of the flat store —
    mutating it never affects the index. *)

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

val export : t -> exclude:int option -> Ri_content.Summary.t array
(** The shifted aggregate sent to a neighbor: slot 0 = local summary,
    slot [h] = sum over the non-excluded rows' slot [h-1]; the last
    original column falls off the horizon. *)

val export_all : t -> (int * Ri_content.Summary.t array) list
(** One export per peer, sharing a single aggregation pass. *)

val export_except :
  t -> except:int list -> (int -> Ri_content.Summary.t array -> 'a) -> 'a list
(** [f peer (export ~exclude:peer)] for every peer with a row not in
    [except], in increasing id order (see {!Cri.export_except}). *)

val goodness : t -> peer:int -> query:int list -> float
(** Cost-model-discounted goodness; [0.] for an unknown peer. *)

val iter_goodness : t -> query:int list -> (int -> float -> unit) -> unit
(** [f peer goodness] for every peer with a row, in unspecified order,
    skipping the per-peer lookup of {!goodness}. *)

val total_beyond_hop : t -> peer:int -> hop:int -> float
(** Documents recorded strictly beyond [hop] through [peer] — used by
    diagnostics and tests probing horizon effects. *)
