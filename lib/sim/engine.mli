(** Discrete-event scheduler for in-flight traffic.

    The synchronous simulator runs each query or update wave to
    completion before the next begins; this engine lets thousands of
    them interleave.  It owns a logical nanosecond clock, an event
    queue split by delay, and one FIFO mailbox per node: a message sent
    to a node crosses the link (constant [link_ns]), waits its turn in
    the mailbox, is serviced for [service_ns], and only then runs its
    handler — which typically advances a query state machine one hop
    and sends the next message.

    {b Events.}  The queue has three parts, each a struct of arrays.
    A binary heap holds the events whose time the caller picks: raw
    {!schedule} events and {!inject}ed messages.  Two FIFO rings hold
    the events of one constant delay each: messages crossing a link,
    due [link_ns] after their {!send}, and service completions, due
    [service_ns] after service starts, with the completed message's
    queue wait.  The clock never goes back, so each ring is born
    sorted, and a send or a service start costs O(1) however many
    events are pending.  Every slot holds the node and the caller's
    handler, and {!run} dispatches on the part and, in the heap, on
    the kind.  So the engine allocates nothing per event of its own —
    no heap record, option or closure — once its arrays have grown to
    the peak number of pending events; a message that finds its node
    busy still takes a mailbox cell.

    {b Determinism.}  Events fire in [(time, seq)] order, whichever
    part of the queue holds them: [seq] is assigned in program order
    at scheduling time, so equal-time events fire exactly in the order
    they were scheduled, and {!run} pops the least [(time, seq)] of
    the heap's root and the two rings' heads.  One engine drives one
    trial on one domain, and every random draw comes from streams
    derived from [(seed, trial)] — so the full event order is a
    function of [(seed, trial, seq)], independent of the pool width;
    cross-trial parallelism composes through the usual per-trial
    observability merge.  With [service_ns = 0] and [link_ns = 0] the
    schedule degenerates to pure scheduling order, which replays the
    synchronous execution of each message chain bit-for-bit.

    {b Attribution.}  Every mailbox delivery is attributed to its node
    in flat per-node arrays — arrivals, completions, busy and
    queue-wait nanoseconds, depth sum and peak — the raw feed of the
    traffic observatory's hotspot profiler ({!Ri_obs.Observatory}).
    The accounting is always on: plain integer stores on paths that
    already pay a queue operation per event.

    {b Depth conventions.}  Two related statistics, one definition of
    "queue depth": the number of {e waiting} messages in a mailbox,
    {b excluding} any message currently in service.  {!queue_mean} is
    the mean depth seen by an arriving message (sampled at every
    arrival, before the arriver joins); {!queue_peak} is the largest
    depth any mailbox reached (sampled after the arriver joins).  The
    per-node [s_depth_sum]/[s_peak] fields use the same definition, so
    per-node and global figures are directly comparable: the global
    values are exactly folds of the per-node arrays. *)

type t

type handler = unit -> unit

val create : ?service_ns:int -> ?link_ns:int -> nodes:int -> unit -> t
(** Fresh engine at logical time 0.  [service_ns] (default [0]) is the
    per-message service time of every node; [link_ns] (default [0]) the
    per-hop propagation delay.
    @raise Invalid_argument on a non-positive node count or negative
    latency. *)

val now : t -> int
(** Current logical time in nanoseconds. *)

val nodes : t -> int
(** The node count the engine was created with. *)

val service_ns : t -> int

val link_ns : t -> int

val schedule : t -> at:int -> handler -> unit
(** Raw event at absolute time [at] (>= [now]), bypassing the mailbox
    model — used for workload arrivals and timers.
    @raise Invalid_argument when [at] is in the past. *)

val inject : t -> at:int -> dst:int -> handler -> unit
(** Deliver a message into [dst]'s mailbox at absolute time [at]
    (queueing + service apply; no link latency — the message originates
    at [dst], like a client query handed to its entry node).
    @raise Invalid_argument when [dst] is out of range or [at] is in
    the past. *)

val send : t -> dst:int -> handler -> unit
(** Send a message from the currently executing event to [dst]: it
    arrives after [link_ns] and then queues for service.  Call only
    from inside a running handler (uses the current logical time).
    @raise Invalid_argument when [dst] is out of range. *)

val run : t -> unit
(** Drain the event queue to empty, advancing the clock. *)

val of_seconds : float -> int
(** Seconds to logical nanoseconds (rounded). *)

val to_seconds : int -> float

val processed : t -> int
(** Messages serviced through mailboxes so far. *)

val backlog : t -> int
(** Messages currently waiting across all mailboxes (in-service
    messages excluded) — the aggregate-depth sample the timeline
    records per bin. *)

val last_wait_ns : t -> int
(** Queue wait of the mailbox delivery whose handler is currently
    running: service-start minus mailbox-arrival time, [0] when the
    message found its node idle.  Meaningful only inside a handler
    delivered through {!inject}/{!send} — raw {!schedule} events do not
    update it.  This is the per-hop queue-wait stamp of the latency
    decomposition. *)

val queue_peak : t -> int
(** Largest mailbox backlog observed at any single node: {e waiting}
    messages only, the one in service excluded.  Equals the max over
    the per-node [s_peak] fields. *)

val queue_mean : t -> float
(** Mean backlog seen by an arriving message, before it joins the
    queue and excluding any message in service (its expected queue
    wait in units of service times) — 0 on an unloaded engine.  Equals
    total per-node [s_depth_sum] over total arrivals. *)

(** Per-node attribution counters, all using the conventions above. *)
type node_stat = {
  s_arrivals : int;  (** messages that entered this node's mailbox *)
  s_completions : int;  (** messages fully serviced here *)
  s_busy_ns : int;  (** total service time burned by this node *)
  s_wait_ns : int;  (** total queue wait accrued in this mailbox *)
  s_depth_sum : int;  (** backlog seen by each arriving message, summed *)
  s_peak : int;  (** largest waiting backlog at this node *)
}

val node_stat : t -> int -> node_stat
(** @raise Invalid_argument when the node is out of range. *)
