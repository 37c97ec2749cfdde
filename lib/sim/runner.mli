(** Repeat-until-confident trial driver.

    "The simulator iterates over different network topologies and
    document result locations, and outputs the average number of
    messages necessary to perform the operation plus a confidence
    interval.  All results were computed with at least a 95% confidence
    interval of having a relative error of 10% or less" (Section 8.2).

    Trials are independently seeded, so they run as waves on a domain
    pool: the first wave is [min_trials] trials, later waves are small
    fixed-size batches, and the CI stopping rule is evaluated only at
    wave boundaries, with observations folded in trial-index order.
    Wave shape never depends on the pool width, which makes parallel
    and sequential runs bit-identical for the same spec.

    The spec is always the caller's: no environment variable changes
    it ([risim]'s [--trials] and [--rel-error] build it). *)

type spec = {
  min_trials : int;
  max_trials : int;
  target_rel_error : float;  (** CI half-width over mean, e.g. 0.1 *)
}

val run : ?pool:Ri_util.Pool.t -> spec -> (trial:int -> float) -> Ri_util.Stats.summary
(** Call the trial function with [trial = 0, 1, ...] in waves until the
    95% CI is within the target relative error (and [min_trials]
    reached) or [max_trials] have run; summarize the observations.
    [pool] defaults to {!Ri_util.Pool.global}, whose width
    {!Ri_util.Pool.set_global_jobs} sets; the trial function must be safe to call from multiple
    domains when the pool is wider than 1 (trial functions built on
    {!Trial} are). *)

val mean : ?pool:Ri_util.Pool.t -> spec -> (trial:int -> float) -> float
