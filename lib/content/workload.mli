(** Queries and query workloads.

    "Users submit queries to any node along with a stop condition (e.g.,
    the desired number of results)" (Section 3.1).  A query is a
    conjunction of subject topics plus that stop condition. *)

type query = {
  topics : Topic.id list;  (** conjunction of subject topics, non-empty *)
  stop : int;  (** desired number of results, [StopCondition] *)
}

val query : topics:Topic.id list -> stop:int -> query
(** @raise Invalid_argument on an empty topic list, a negative topic id
    or a non-positive stop condition. *)

val single : Topic.id -> stop:int -> query

val random_single : Ri_util.Prng.t -> Topic.t -> stop:int -> query
(** Query on one uniformly chosen topic. *)

(** Skewed topic popularity for open-loop traffic.

    Real query streams are not uniform: a few topics draw most of the
    load.  A generator ranks the universe's topics by popularity with
    Zipfian weights [1 / rank^exponent] and draws topics from a seeded
    stream, so a workload is reproducible from its PRNG alone.  With
    [shift_every > 0] the rank-to-topic mapping rotates by one slot
    every that many draws — a drifting hot set for staleness
    experiments, while the rank {e distribution} stays fixed. *)
module Zipf : sig
  type t
  (** A popularity distribution plus its draw counter (for shifting).
      The PRNG is passed per draw, not captured, so one distribution
      can serve several independently seeded streams. *)

  val create : ?exponent:float -> ?shift_every:int -> Topic.t -> t
  (** [create universe] ranks all topics.  [exponent] (default [1.0])
      is the Zipf skew; [0.] degenerates to uniform.  [shift_every]
      (default [0]) rotates the rank-to-topic mapping every N draws;
      [0] never shifts.
      @raise Invalid_argument on a negative or NaN exponent or a
      negative [shift_every]. *)

  val draw : t -> Ri_util.Prng.t -> Topic.id
  (** Draw one topic by popularity rank (binary search over the
      cumulative table) and advance the shift counter. *)

  val query : t -> Ri_util.Prng.t -> stop:int -> query
  (** A single-topic query on a popularity-drawn topic. *)

  val pmf : t -> float array
  (** Probability of each {e rank} (not topic id), for distribution
      checks. *)

  val topic_of_rank : t -> int -> Topic.id
  (** The topic currently occupying a popularity rank (identity until
      the mapping has shifted). *)

  val draws : t -> int
  (** Topics drawn so far. *)
end

val poisson_next : Ri_util.Prng.t -> rate:float -> float
(** One exponential inter-arrival gap (seconds) of a Poisson process
    with [rate] events per second — the open-loop arrival clock.
    @raise Invalid_argument on a non-positive or NaN rate. *)

val pp : Topic.t -> Format.formatter -> query -> unit
