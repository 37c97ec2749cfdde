(** Routing indices, all three kinds behind one record.

    The query-processing and update-propagation algorithms of Section 5
    are identical across the RI kinds, and so is the index itself: per
    neighbor, a row of topic summaries (Sections 4-6).  Only the export
    (aggregation) rule and the goodness estimator differ, so this module
    writes the row table once and the P2P layer is written once on top.

    It owns the row layout.  One node's rows live in one flat
    {!Rowstore}: a row is [slots] summaries back to back, each
    [total; by_topic...] ([1 + width] floats), slot [h] at
    [off + h * (1 + width)].  CRI and ERI rows have one slot, HRI rows
    one per hop up to the horizon, and hybrid rows one more: the
    aggregate of everything beyond the horizon.

    A {!payload} is what travels in a creation/update message: a plain
    aggregate summary for CRI and ERI, a per-hop vector for HRI and the
    hybrid.  {!blit_payload} lays a payload out as the row it becomes. *)

type kind =
  | Cri_kind
  | Hri_kind of { horizon : int; fanout : float }
  | Eri_kind of { fanout : float }
  | Hybrid_kind of { horizon : int; fanout : float }
      (** the hybrid CRI-HRI of Section 6.2: hop-count slots within the
          horizon plus a compound-style aggregate of everything beyond *)

val kind_name : kind -> string
(** ["CRI"], ["HRI"], ["ERI"] or ["HYB"]. *)

type payload =
  | Vector of Ri_content.Summary.t  (** CRI / ERI export *)
  | Hop_vector of Ri_content.Summary.t array  (** HRI export *)

type t
(** One node's routing index. *)

val create :
  ?rows:int -> kind -> width:int -> local:Ri_content.Summary.t -> t
(** [width] is the topic-vector width (after any index compression).
    [rows] pre-sizes the per-peer row store — pass the node's overlay
    degree to avoid regrowth copies and slack slots.
    @raise Invalid_argument unless [width > 0], an ERI's fanout exceeds
    1, an HRI's or hybrid's horizon is positive (and its fanout exceeds
    1, see {!Cost_model.make}) and the local summary's width matches. *)

val rowstore : t -> Rowstore.t
(** The underlying flat row store. *)

val kind : t -> kind

val width : t -> int

val local : t -> Ri_content.Summary.t

val set_local : t -> Ri_content.Summary.t -> unit
(** @raise Invalid_argument if the summary's width differs. *)

val set_row : t -> peer:int -> payload -> unit
(** Install or replace the row for [peer].
    @raise Invalid_argument if the payload shape does not match the
    scheme (e.g. a [Hop_vector] handed to a CRI), a hop vector's length
    is not the row's slot count, or a summary's width differs. *)

val row : t -> peer:int -> payload option
(** A fresh copy of the stored row, boxed out of the flat store —
    mutating it never affects the index. *)

val blit_payload : payload -> float array -> int -> unit
(** [blit_payload p dst pos] writes [p] into [dst] from [pos] in the row
    layout: [total; by_topic...] per summary, hop slots back to back —
    what {!set_row} stores, for callers that stage rows in their own
    flat arrays. *)

val payload_at : t -> float array -> int -> payload
(** [payload_at t src pos] boxes the row laid out at [src.(pos)] in
    [t]'s layout — the inverse of {!blit_payload}. *)

val remove_row : t -> peer:int -> unit
(** Forget a neighbor (e.g. on disconnection, Section 4.3).  No-op if
    absent. *)

val stamp_row : t -> peer:int -> int -> unit
(** Record the logical update-wave id that last wrote the peer's row —
    provenance lineage for the observability plane.  No-op when the peer
    has no row. *)

val row_stamp : t -> peer:int -> int
(** The wave id recorded by {!stamp_row}; [0] for rows untouched since
    network construction or absent peers. *)

val peers : t -> int list
(** Neighbors with a row, in increasing id order. *)

val export : t -> exclude:int option -> payload
(** The aggregated RI sent to a neighbor, every row but [exclude]'s
    taking part.  CRI: the local summary plus the rows — in the paper's
    Figure 5, A sends D the vector (1400, 50, 380, 10, 90).  ERI:
    [local + rows / F].  HRI: slot 0 is the local summary and slot [h]
    the rows' slot [h - 1]; the last slot falls off the horizon, or
    joins the hybrid's tail. *)

val export_all : t -> (int * payload) list
(** One export per known peer, sharing one aggregation pass. *)

val export_except : t -> except:int list -> (int * payload) list
(** {!export_all} restricted to peers not in [except], skipping the
    excluded exports entirely — bit-identical to filtering
    {!export_all}. *)

val blit_exports :
  t -> work:float array -> ?all:int -> (int -> int) -> float array -> unit
(** [blit_exports t ~work ?all pos dst] writes, laid out by
    {!blit_payload}, [export t ~exclude:(Some p)] into [dst] from
    [pos p] for every peer [p] with a row and [pos p >= 0], and
    [export t ~exclude:None] from [all] when given: bit for bit, from
    one aggregation pass, with no boxed row.  [work] holds the aggregate
    and must be at least one row ([Rowstore.stride]) long. *)

val goodness : t -> peer:int -> query:int list -> float
(** {!Estimator.goodness} of the peer's row for CRI and ERI (for a
    single-topic ERI query this is the stored entry, e.g. 16.33 for "DB"
    through X in the paper's Figure 9); for HRI and the hybrid the
    hop-discounted [goodness_hc] of {!Cost_model.hop_count_goodness},
    the tail counting as hop [horizon + 1].  [0.] for an unknown peer. *)

val peer_count : t -> int
(** Number of peers with a row, without building the list. *)

val iter_goodness : t -> query:int list -> (int -> float -> unit) -> unit
(** [f peer goodness] for every peer with a row, in unspecified order —
    one pass over the rows, no per-peer lookups. *)

val rank : t -> query:int list -> exclude:int list -> (int * float) list
(** Peers ordered by decreasing goodness for the query, [exclude]d peers
    omitted.  Ties break toward the smaller peer id, keeping runs
    deterministic. *)

val rank_array : t -> query:int list -> keep:(int -> bool) -> (int * float) array
(** {!rank} as a single array pass: peers satisfying [keep], ordered by
    decreasing goodness (ties toward the smaller id).  The allocation-
    light form used on the per-hop forwarding path. *)

val rank_peers : t -> query:int list -> keep:(int -> bool) -> int list
(** The peer ids of {!rank_array}, in rank order. *)

(** {2 Payload utilities} *)

val payload_zero : kind -> width:int -> payload

val payload_rel_diff : payload -> payload -> float
(** Largest relative entry change between two payloads of the same
    shape — the [minUpdate] significance test.  [infinity] on shape
    mismatch (a shape change is always significant). *)

val payload_exceeds_rel : payload -> payload -> threshold:float -> bool
(** [payload_exceeds_rel old new_ ~threshold] is
    [payload_rel_diff old new_ > threshold], but stops scanning at the
    first entry over the threshold — the early-exit form the update
    wave's per-message significance test uses.  A shape (or width)
    mismatch always exceeds. *)

val payload_changed_entries : payload -> payload -> int
(** Entries whose value differs between two payloads of the same shape —
    the pair count a sparse (index, delta) update encoding ships.  On a
    shape or width mismatch every entry of the second payload counts
    (such an update can only be sent dense). *)

val payload_distance : payload -> payload -> float
(** Euclidean distance between two payloads' entry vectors (summed over
    hops for HRI) — the absolute update-significance criterion the paper
    suggests for exponential RIs in Section 6.2.  [infinity] on shape
    mismatch. *)

val payload_total : payload -> float
(** Total-documents entry (hop-summed for HRI). *)

val payload_entries : payload -> int
(** Number of scalar entries, for byte-cost accounting: [(1 + width)]
    per summary, times the horizon for HRI. *)

val storage_entries : kind -> width:int -> neighbors:int -> int
(** Scalar counters one node's routing index holds: one row per
    neighbor plus the local-summary row, each [(1 + width)] counters
    (times the slot count for hop-structured schemes).  Multiplying by a
    counter size in bytes gives the paper's Section 4.1 storage figures:
    "each node of a distributed system would need [s x (c+1) x b]
    bytes". *)

val storage_bytes : t -> int
(** Bytes this node's index has actually allocated for summaries: the
    local row plus the flat row store's capacity, 8 bytes per float
    slot.  Unlike {!storage_entries} (the paper's analytical formula) this
    reflects the live data structure, including growth slack, and is
    what {!Ri_p2p.Network.storage_words} counts. *)

val payload_perturb :
  Ri_util.Prng.t ->
  relative_stddev:float ->
  kind:Ri_content.Compression.error_kind ->
  payload ->
  payload
(** Apply the Gaussian error model of Appendix A to every summary in the
    payload (used to make index errors compound across exports). *)
