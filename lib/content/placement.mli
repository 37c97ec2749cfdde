(** Document-result placement.

    Appendix A: "For simplicity, we assume that all queries have the same
    number of results (QR)" — 3125 in the base configuration, 5.2% of
    60000 nodes, the fraction of Gnutella nodes observed to hold an
    answer for a typical query.  Parameter D places those results either
    {e uniformly} or with an {e 80/20 bias} ("assigns uniformly 80% of
    the document results to 20% of the nodes, and the remaining 20% of
    the documents to the remaining 80% of the nodes").

    Besides the query results, nodes hold background documents on other
    topics so routing indices have realistic non-zero entries
    everywhere.  Background documents never match the query (they are
    drawn avoiding at least one query topic), keeping the ground-truth
    result count exact. *)

type distribution =
  | Uniform
  | Biased of { doc_share : float; node_share : float }
      (** [doc_share] of the results on [node_share] of the nodes *)

val eighty_twenty : distribution
(** [Biased { doc_share = 0.8; node_share = 0.2 }], the paper's base
    document distribution. *)

type t = {
  matches : int array;  (** per node, documents matching the query *)
  summaries : Summary.t array;  (** per node, local-index summary *)
  total_matches : int;  (** [QR], the sum of [matches] *)
}

val distribute :
  Ri_util.Prng.t ->
  universe:Topic.t ->
  n:int ->
  query_topics:Topic.id list ->
  results:int ->
  distribution:distribution ->
  ?background_per_node:float ->
  ?topics_per_background_doc:int ->
  unit ->
  t
(** [distribute rng ~universe ~n ~query_topics ~results ~distribution ()]
    places [results] matching documents (each carrying exactly the query
    topics) over [n] nodes according to [distribution], and adds an
    average of [background_per_node] (default [2.0]) non-matching
    documents per node, each on [topics_per_background_doc] (default [2])
    topics.  Every draw comes from [rng], node by node, so the result
    depends only on [rng] and the arguments, at every [n].
    @raise Invalid_argument on a non-positive [n], negative
    [results], an empty or out-of-range query, or a [Biased] distribution
    with shares outside (0, 1). *)

val node_summary : t -> int -> Summary.t

val topic_total : t -> Topic.id -> float
(** The documents on [topic] over every node's summary, summed in node
    order from [0.]. *)

val move :
  t -> topics:Topic.id list -> donor:int -> recipient:int -> int ->
  Summary.t * Summary.t
(** [move t ~topics ~donor ~recipient k] moves [k] matching documents
    (each carrying exactly the query [topics]) from [donor] to
    [recipient] in place: [matches] shifts by [k], and each node's
    summary by [k] on its total and on every query topic, clamped at 0.
    Returns the donor's and the recipient's new summaries, for the
    update waves that announce the move.  [total_matches] is unchanged.
    @raise Invalid_argument unless [0 <= k <= matches.(donor)]. *)
