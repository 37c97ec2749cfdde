(** Fixed-size domain pool for embarrassingly parallel index ranges.

    Simulation trials are independently seeded, so whole waves of them
    can run on separate OCaml 5 domains.  Trials are the one unit that
    runs in parallel: the runner and the traffic driver submit them, and
    everything inside a trial is sequential code.  A pool owns
    [jobs - 1] worker domains (the submitting domain participates as
    the [jobs]-th worker); a pool created with [jobs = 1] owns no
    domains at all and runs every job inline, which is the sequential
    path.

    A pool has a single top-level submitter at a time, but submissions
    are re-entrant in one specific way: an item function that itself
    calls {!iter} is detected through a domain-local flag and runs
    inline, sequentially — the exact loop a 1-job pool would run —
    instead of deadlocking on the submitter protocol.  Item functions
    run concurrently and must not share unsynchronized mutable state. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [max 1 jobs - 1] worker domains. *)

val jobs : t -> int
(** Parallel width, including the submitting domain. *)

val in_job : unit -> bool
(** Whether the calling domain is currently executing a pool item.  An
    {!iter} from such a context runs inline. *)

val iter : t -> n:int -> (int -> unit) -> unit
(** [iter t ~n f] runs [f 0 .. f (n-1)], each domain claiming one index
    at a time.  Returns when all [n] items have finished.  On a 1-job
    pool — or when called from inside a running pool item, see
    {!in_job} — this is a plain [for] loop, raising as soon as [f]
    does; on a wider pool the first recorded exception is re-raised
    after in-flight items settle, carrying the backtrace captured in
    the domain where it was raised. *)

val map : t -> n:int -> (int -> 'a) -> 'a array
(** [map t ~n f] is [[| f 0; ...; f (n-1) |]], computed like {!iter}.
    Results land at their own index, so the output order is
    deterministic regardless of scheduling. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Submitting to a
    shut-down pool raises [Invalid_argument]. *)

(** Utilization counters, accumulated per submitted wave (a few cheap
    mutations per {!iter} call, so they are always on). *)
type stats = {
  waves : int;  (** jobs submitted, inline runs included *)
  items : int;  (** total indices across all waves *)
  max_wave : int;  (** largest single wave *)
  busy_domains : int;
      (** sum over waves of domains that claimed at least one item;
          [busy_domains / waves] is the mean parallel width achieved *)
  submit_wait_s : float;
      (** total seconds the submitter spent blocked on stragglers after
          draining its own share — queue-wait imbalance *)
}

val stats : t -> stats

val reset_stats : t -> unit
(** Zeroes the counters. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** Create, run, and always shut down (exception-safe). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], floored at 1: all cores
    but the one the submitter runs on.  {!set_global_jobs} overrides
    it. *)

val global : unit -> t
(** The process-wide pool, created on first use with {!default_jobs}
    and shut down automatically at exit. *)

val set_global_jobs : int -> unit
(** Replace the global pool with one of the given width (shutting down
    the old one); the new pool's counters start at zero.  Used by
    command-line [--jobs] flags. *)
