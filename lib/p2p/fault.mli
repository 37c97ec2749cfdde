(** Fault injection: the adversarial environment the paper assumes away.

    The paper's evaluation is cooperative — updates always arrive, nodes
    announce departures (Section 5), queries never hit a dead neighbor.
    This module supplies a per-trial {e fault plan}: a deterministic,
    PRNG-seeded schedule of update-message loss, update delay
    (aggregates applied whole waves late), crash-stop node failure (no
    goodbye message — neighbors only learn of the death when a query
    forward times out), transient link flaps, and network partitions
    (connected graph cuts with scheduled heal).  The p2p layer threads
    an optional plan through {!Update}, {!Query} and {!Churn}; with no
    plan every code path is byte-identical to the fault-free simulator.

    {b Staleness model.}  Update messages carry the sender's full
    absolute aggregate, so one successful delivery heals a row however
    many predecessors were lost.  A receiver can {e detect} that it
    missed updates (per-link sequence numbers or keepalives reveal the
    gap even though the content is gone), so the plan keeps a
    per-(node, peer) missed-update ledger: rows with recorded gaps
    beyond [stale_after] are treated as unreliable and — when fallback
    is enabled — ranked like the No-RI baseline instead of being
    trusted.  Gaps also {e taint}: a node with an open gap knows the
    aggregates it exports are computed from suspect inputs, so its
    onward update messages carry a staleness bit ({!tainted}).  A
    flagged delivery still refreshes the receiver's row, but it cannot
    heal a recorded gap — only a delivery whose sender held no open
    gaps (or a reconciliation with such a node) proves the row is
    trustworthy again.  A marked row is therefore one that lost an
    update and has received no trustworthy aggregate since.

    {b Partitions.}  A [partition] fraction severs a spanning-tree
    subtree of roughly that many nodes — chosen so {e both} sides of
    the cut stay connected, with the first protected node pinned to the
    majority side — and drops every edge crossing the cut: update messages are dropped (with the gap recorded on both
    endpoints), query forwards time out, and no death certificates are
    issued for unreachable-but-live nodes — a partitioned peer is
    suspected, not buried.  The cut heals after [heal_after] update
    waves, or explicitly via {!heal_partition} (how {!Trial.run_recovery}
    and the chaos harness stage recovery).

    {b Determinism.}  A plan draws from its own generator, derived only
    from [(seed, trial)] — never split from the trial's master stream —
    so enabling faults perturbs no existing stream, an inert spec is a
    strict no-op, and the same seed + spec gives identical results and
    traces at any pool width.  The partition and retry-jitter streams
    are split strictly after the original five, so specs that use
    neither draw the same sequences as before they existed. *)

type spec = {
  update_loss : float;  (** P(update message lost in transit) *)
  update_delay : float;  (** P(update message delayed, not lost) *)
  delay_waves : int;  (** rounds a delayed aggregate sits in transit *)
  crash : float;  (** fraction of nodes crash-stopped before the trial *)
  link_flap : float;  (** P(query forward times out on a live link) *)
  drift : float;
      (** fraction of query results relocated before the query, each
          move propagated by a (fault-prone) corrective update wave —
          the staleness source for query experiments *)
  partition : float;
      (** fraction of nodes severed onto the minority side of a
          connected graph cut; [0.] means no partition *)
  heal_after : int option;
      (** update waves the cut survives; the next wave started after
          that many heals it.  [None] heals only via
          {!heal_partition}. *)
  stale_after : int option;
      (** rows with more than this many recorded missed updates fall
          back to random ranking; [None] trusts stale rows forever *)
  retries : int;  (** resends after the first timeout on a forward *)
  backoff : int;
      (** base backoff; attempt [k] waits uniform in
          [\[0, min (2^20, backoff * 2^k)\]] (full jitter) *)
  query_budget : int option;
      (** cap on query forwards; [None] is unlimited.  Needed under
          faults: a timeout-ridden walk would otherwise compensate with
          unbounded traffic, hiding the degradation being measured. *)
}

val none : spec
(** All rates zero, no staleness threshold, no retries, no budget. *)

val active : spec -> bool
(** [true] when any fault rate (loss, delay, crash, flap, drift,
    partition) is positive — the budget alone does not make a spec
    active. *)

val validate : spec -> (unit, string) result
(** Probabilities in [\[0, 1\]] (crash and partition strictly below 1),
    non-negative integers, positive budget. *)

val pp : Format.formatter -> spec -> unit

type t
(** A plan: one trial's concrete fault schedule plus its running state
    (dead set, cut sides, missed-update ledger, death certificates,
    stats). *)

val make :
  ?fault_seed:int ->
  ?neighbors:(int -> int array) ->
  spec ->
  seed:int ->
  trial:int ->
  nodes:int ->
  protect:int list ->
  t
(** Instantiate the plan for one trial.  Crash-stops
    [round (crash * nodes)] nodes (capped so at least one protected
    node survives), never any node in [protect] — the query origin must
    outlive its own query.  When [spec.partition > 0.] the adjacency
    [neighbors] is required to pick the severed subtree (both sides of
    the cut stay connected; the first [protect] entry stays on the
    majority side).
    [fault_seed] (default: [seed]) decouples the plan's stream from the
    topology seed so a fault schedule replays against other networks.
    @raise Invalid_argument on an invalid spec, empty network, or a
    partition spec without [~neighbors]. *)

val spec : t -> spec

val query_budget : t -> int
(** The spec's budget, [max_int] when unlimited. *)

(** {2 Crash-stop and recovery} *)

val is_dead : t -> int -> bool

val crashed : t -> int
(** How many nodes the plan killed. *)

val kill : t -> int -> unit
(** Crash-stop one more node mid-trial ({!Churn.crash_stop}). *)

val revive : t -> int -> unit
(** Mark a dead node live again ({!Churn.recover}).  Revokes every
    death certificate naming it — the node is demonstrably alive, and a
    standing certificate would let reconciliation gossip re-delete its
    freshly announced rows.  A no-op on live nodes. *)

val knows_dead : t -> at:int -> dead:int -> bool
(** Has [at] already declared [dead] dead? *)

val learn_dead : t -> at:int -> dead:int -> bool
(** Record that [at] has presumed [dead] dead (all retries timed out,
    or gossip).  Returns [true] the first time [at] learns it. *)

val known_dead_of : t -> int -> int list
(** Every node [at] has declared dead, in the order it learned of them
    — the death certificates it gossips during reconciliation. *)

val dirty : t -> int -> bool

val set_dirty : t -> int -> unit
(** Mark a node as holding un-reconciled fault knowledge; first contact
    with each neighbor then triggers lazy anti-entropy ({!Churn.reconcile}). *)

val clear_dirty : t -> int -> unit
(** An anti-entropy round has digested every link of the node. *)

(** {2 Partition} *)

val partitioned : t -> bool
(** Is a cut currently active? *)

val same_side : t -> int -> int -> bool
(** Can [u] and [v] exchange messages?  Always [true] with no active
    cut.  Consumes no randomness, so severing is invisible to the
    plan's streams. *)

val cut_size : t -> int
(** Nodes on the minority side (0 when the spec has no partition). *)

val heal_partition : t -> unit
(** Drop the cut immediately; severed links carry traffic again. *)

val note_wave_start : t -> unit
(** An update wave is starting.  Counts waves survived by the cut and
    auto-heals once [heal_after] is exceeded. *)

val quiesce : t -> unit
(** Enter recovery-measurement mode: loss, delay and flap draws answer
    [false] without consuming the stream, so post-heal reconvergence is
    exact.  One-way. *)

val quiesced : t -> bool

(** {2 Fault draws (consume the plan's private stream)} *)

val drop_update : t -> bool

val delay_update : t -> bool
(** Drawn only for messages that were not dropped. *)

val flap : t -> bool
(** One transient-loss draw for a query forward on a live link. *)

val shuffle : t -> int array -> unit
(** Fallback ordering for stale rows, from the plan's query stream. *)

val drift_int : t -> int -> int
(** Uniform draw from the plan's content-drift stream (donor and
    recipient selection when results are relocated). *)

(** {2 Staleness ledger} *)

val note_missed : t -> at:int -> peer:int -> unit
(** A message from [peer] addressed to [at] was lost: [at]'s row for
    [peer] has a detectable gap. *)

val clear_missed : t -> at:int -> peer:int -> unit
(** A full absolute aggregate arrived (or the row was reconciled): the
    gap is healed. *)

val missed : t -> at:int -> peer:int -> int

val tainted : t -> at:int -> toward:int -> bool
(** Is [at]'s export toward [toward] aggregated from suspect inputs —
    does [at] have an open gap on any {e other} row?  (The
    [(at, toward)] row itself is excluded from that export, so a gap
    there does not taint it.)  {!Update} flags such messages with a
    staleness bit; a flagged delivery still refreshes the receiver's
    row — best-effort data beats none — but cannot {e heal} a recorded
    gap, because it proves nothing about the updates that were lost. *)

val fallback : t -> bool
(** Whether the spec degrades stale rows ([stale_after] is set). *)

val stale : t -> at:int -> peer:int -> bool
(** [fallback] is on and the row's recorded gap exceeds the threshold. *)

(** {2 Retry/backoff} *)

val retries : t -> int

val backoff_ticks : t -> attempt:int -> int
(** Full-jitter backoff: uniform in
    [\[0, min (2^20, backoff * 2^attempt)\]], drawn from the
    plan's dedicated retry stream (deterministic per plan), in abstract
    ticks (the simulator has no clock; ticks feed a counter that stands
    in for added latency).  [0] when the spec's base backoff is [0] —
    no draw is consumed. *)

(** {2 Stats (also mirrored into [ri_fault_*] metrics when enabled)} *)

type stats = {
  mutable crashes : int;
  mutable update_drops : int;  (** lost in transit *)
  mutable update_dead : int;  (** addressed to a crashed node *)
  mutable update_delays : int;
  mutable partition_drops : int;  (** severed by an active cut *)
  mutable timeouts : int;
  mutable retries_used : int;
  mutable backoff_total : int;  (** accumulated backoff ticks *)
  mutable fallbacks : int;  (** stale rows demoted to random ranking *)
  mutable repairs : int;  (** rows fixed by detection or anti-entropy *)
  mutable recoveries : int;  (** crashed nodes revived *)
  mutable budget_stops : int;
}

val stats : t -> stats
(** The plan's live counters (single-threaded per trial). *)

val note_drop : t -> dead:bool -> unit

val note_delay : t -> unit

val note_partition_drop : t -> unit

val note_timeout : t -> attempt:int -> unit
(** One timed-out forward; charges [backoff_ticks ~attempt] too. *)

val note_retry : t -> unit

val note_fallbacks : t -> int -> unit

val note_repair : t -> unit

val note_budget_stop : t -> unit
