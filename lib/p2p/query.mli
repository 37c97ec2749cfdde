(** Query processing (Sections 3.1 and 5.2).

    A query enters at an origin node, which answers from its local
    database and, while the stop condition is unmet, forwards the query
    {e sequentially} to its neighbors in the order given by its routing
    index (or in random order for the No-RI baseline).  A node that
    cannot forward any further returns the query to the neighbor it came
    from, which tries its next-best neighbor — a depth-first traversal
    driven by per-node rankings.

    Cycle handling during query processing follows Appendix A:
    with [Detect_recover] "nodes keep track of the queries ... If a
    query reaches a node for a second time (due to a cycle) the message
    is not forwarded any further"; with [No_op] a revisited node
    processes the query again — it finds only "document results that
    were already found in a previous iteration" (results are counted
    once) and forwards to neighbors it has not yet tried, which is where
    the ignore policy's extra traffic comes from (Figure 16). *)

type forwarding =
  | Ri_guided  (** rank neighbors by the local routing index *)
  | Random_walk  (** the paper's No-RI baseline: random neighbor order *)

type outcome = {
  found : int;  (** ground-truth results located (counted once) *)
  satisfied : bool;  (** stop condition reached *)
  nodes_visited : int;  (** distinct nodes that processed the query *)
  counters : Message.counters;
}

(** One observable step of a query's life, emitted in order through
    {!run}'s [on_event] callback — the message-level trace behind the
    counters. *)
type event =
  | Forwarded of { sender : int; receiver : int }
  | Returned of { sender : int; receiver : int }
      (** the query bounced back: subtree exhausted or revisit detected *)
  | Results of { at : int; count : int }
      (** a result-pointer message to the query's client *)
  | Timed_out of { sender : int; receiver : int; attempt : int }
      (** fault injection: the forward got no acknowledgment (dead
          neighbor or link flap); [attempt] counts from 0 *)
  | Gave_up of { sender : int; receiver : int }
      (** every retry timed out; the sender presumes the neighbor dead *)
  | Reconciled of { a : int; b : int }
      (** lazy anti-entropy ran across this link before the hop *)

val messages : outcome -> int
(** Total query-processing messages: forwards + returns + results. *)

val run :
  ?rng:Ri_util.Prng.t ->
  ?on_event:(event -> unit) ->
  ?decide:Ri_obs.Span.sink ->
  ?plan:Fault.t ->
  Network.t ->
  origin:int ->
  query:Ri_content.Workload.query ->
  forwarding:forwarding ->
  outcome
(** Execute one query.  [rng] (required semantics only for
    [Random_walk]; defaults to the network's generator) supplies the
    random neighbor ordering.  [on_event] observes every message as it
    is sent, in order.

    [decide] (default {!Ri_obs.Span.null}), the trial's log sink,
    receives per-hop provenance when it records decisions
    ({!Ri_obs.Decision}): one [Decide] per decision point with the candidate
    goodness vector, per-row staleness and update-wave lineage, and the
    counterfactual oracle-best candidate (ground-truth reachability with
    the deciding node removed); [Follow]/[Backtrack]/[Timeout] for the
    walk skeleton; one final [Stop].  Otherwise every capture site
    — including the per-candidate oracle BFS — is a single branch.
    [run_parallel] and [flood] take no sink: neither makes per-neighbor
    routing decisions worth explaining.

    [plan] runs the query in the fault environment: forwards to
    crash-stopped neighbors, across an active cut, or (with probability
    [link_flap]) to live ones time out and are resent up to [retries]
    times, each timeout charging full-jitter backoff drawn from the
    plan's retry stream ({!Fault.backoff_ticks}).  A neighbor that never
    answers is presumed dead — its row is dropped ({!Churn.detect_crash})
    and the walk moves on; one behind a cut only gets its row's gap
    marked.  First contact across a link after fault knowledge accrued
    triggers {!Churn.reconcile}.  With [stale_after] set, [Ri_guided]
    ranks rows with detectable update gaps {e after} all fresh rows, in
    random order — graceful degradation to No-RI ranking instead of
    trusting garbage counts.  [query_budget] caps total forwards,
    resends included.  Omitting [plan] is bit-for-bit the fault-free
    query.

    Every query, with a plan or without, runs on the {!Step} machine,
    drained inline.
    @raise Invalid_argument for [Ri_guided] on a No-RI network, an
    out-of-range origin, or a crash-stopped origin. *)

(** The query as a message-driven state machine: {!run} drains one
    inline, and the discrete-event engine ({!Ri_sim.Engine}) drives one
    per in-flight query.

    The sequential walk keeps exactly one message in flight — the
    forward it just sent (or resent after a timeout), or the return
    bouncing it back — so {!deliver}ing that message yields at most one
    successor [send].  Draining the machine inline is the zero-latency
    schedule: it is how {!run} executes, so a machine started here
    replays {!run} without a plan bit-for-bit — same events in the same
    order, same counters, same outcome.  An engine instead routes each
    [send] through its receiver's mailbox and the link latency model;
    because fault-free queries never write network state, interleaving
    thousands of machines leaves each one's behavior — and its random
    stream, when given a private [rng] — untouched.

    The fault plan's transitions (timeouts, resends, give-ups, stale-row
    fallback, the budget, lazy repair) live in this machine too, but
    only {!run} can supply a plan: a faulty walk writes network state —
    it removes rows of presumed-dead peers and reconciles links — so
    interleaved faulty machines would see each other's writes and no
    longer be independent.  That is why {!start} takes no plan. *)
module Step : sig
  type t
  (** One in-flight query: visited set, frame stack, counters. *)

  type kind = Forward | Return

  type send = { src : int; dst : int; kind : kind }
  (** A message in flight.  [dst] is where it must be delivered;
      servicing it there produces the successor. *)

  val start :
    ?rng:Ri_util.Prng.t ->
    ?on_event:(event -> unit) ->
    ?decide:Ri_obs.Span.sink ->
    Network.t ->
    origin:int ->
    query:Ri_content.Workload.query ->
    forwarding:forwarding ->
    t * send option
  (** Process the query at its origin and emit the first hop ([None]
      when the origin alone satisfies the stop condition).  Interleaved
      machines sharing a PRNG would entangle their shuffle draws: give
      each concurrent [Random_walk] query a private [rng].
      @raise Invalid_argument as {!run}. *)

  val deliver : t -> send -> send option
  (** Service a delivered message at [send.dst]: process the visit (or
      bounce a detected revisit), then emit the walk's next message.
      Under {!run}'s fault plan a forward that cannot land times out
      instead: the successor is the same forward resent, or, once the
      retries or the budget are spent, the walk's next message after
      giving up on [send.dst].  [None] means the query just completed. *)

  val outcome : t -> outcome
  (** The outcome so far; final once {!deliver} returned [None]. *)

  val finish : t -> outcome
  (** Emit the final [Stop] decision record and publish the outcome's
      metrics (query counters and cost sketches), exactly as {!run}
      does on completion.  Call once, after the machine has drained. *)
end

type parallel_outcome = {
  p_found : int;
  p_satisfied : bool;
  p_nodes_visited : int;
  p_rounds : int;
      (** forwarding rounds until the stop condition was met (or the
          frontier died) — the response-time proxy of Section 3.1 *)
  p_counters : Message.counters;
}

val run_parallel :
  ?on_event:(event -> unit) ->
  Network.t ->
  origin:int ->
  query:Ri_content.Workload.query ->
  branch:int ->
  parallel_outcome
(** Parallel forwarding (Section 3.1): instead of trying neighbors one
    at a time, every node holding the query forwards it to its [branch]
    best neighbors {e simultaneously}; the wave stops expanding at the
    end of the round in which the stop condition is reached.  "A
    parallel approach yields better response time, but generates higher
    traffic and may waste resources" — the [p_rounds] / message
    trade-off this returns.  [branch >= degree] degenerates into an
    RI-ordered flood; [branch = 1] follows only the best path (without
    the sequential algorithm's backtracking).
    @raise Invalid_argument on a No-RI network, a non-positive [branch]
    or an out-of-range origin. *)

val flood :
  ?on_event:(event -> unit) ->
  ?plan:Fault.t ->
  Network.t ->
  origin:int ->
  query:Ri_content.Workload.query ->
  ?ttl:int ->
  unit ->
  outcome
(** Gnutella-style flooding: every node forwards the query to all its
    other neighbors; duplicate deliveries are dropped but still cost a
    message; the stop condition is ignored ("Gnutella-like systems find
    all results in the section of the network they explore").  [ttl]
    bounds the flood radius (Gnutella shipped with 7); omitted means
    unlimited.  Under a [plan], copies sent to crash-stopped nodes are
    swallowed silently (flooding never retries) and the plan's
    [query_budget], if any, caps the flood's forwards.
    @raise Invalid_argument on an out-of-range or crash-stopped
    origin. *)
