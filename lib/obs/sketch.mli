(** Deterministic, mergeable quantile sketches with bounded relative
    error (DDSketch-style logarithmic buckets).

    A sketch built from the same multiset of observations always holds
    the same state — bucket counts and totals are integer sums, the
    running sum is accumulated in integer micro-units (rounded once per
    observation), and min/max commute — so {!merge} is associative and
    commutative {e at the byte level}: per-trial sketches combine to
    identical {!encode} output whatever the merge order or pool
    width.

    Quantile estimates are within relative error [alpha] (default 1%)
    of the exact sorted-reference quantile for positive values;
    non-positive observations collapse into an exact zero bucket. *)

type t

val default_alpha : float
(** 0.01 — 1% relative error, ~115 buckets per decade. *)

val create : ?alpha:float -> unit -> t
(** @raise Invalid_argument unless [0 < alpha < 1]. *)

val alpha : t -> float

val add : t -> float -> unit
(** NaN observations are ignored; values [<= 0] land in the exact zero
    bucket. *)

val count : t -> int

val sum : t -> float
(** Sum of observations, from the order-independent micro-unit
    accumulator (so exact to 1e-6 per observation). *)

val min_value : t -> float
(** 0 on an empty sketch. *)

val max_value : t -> float

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0, 1]]; relative error is bounded by
    [alpha t] against the exact sorted reference.  0 on an empty
    sketch. *)

val merge_into : dst:t -> t -> unit
(** @raise Invalid_argument on an alpha mismatch. *)

val clear : t -> unit
(** Back to the empty state, keeping [alpha]. *)

val merge : t -> t -> t

val copy : t -> t

val encode : t -> string
(** Canonical single-line encoding (sorted buckets) — equal sketches
    encode to equal bytes; the merge property tests compare these. *)

val snapshot_json : t -> string
(** [{"count":..,"sum":..,"min":..,"max":..,"p50":..,...,"p999":..}] *)
