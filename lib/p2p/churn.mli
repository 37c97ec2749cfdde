(** Node and link churn (Sections 4.2 and 4.3).

    Connecting two nodes: "node A aggregates its RI and sends it to D
    ... Similarly, D aggregates its RI (excluding the row for A if it is
    already in the RI) and sends its aggregated RI to A", after which
    both inform their other neighbors that they can now reach more
    documents.

    Disconnection needs no cooperation from the leaving node: "Node D
    detects the disconnection and updates its RI by removing the row for
    I.  Then D informs its neighbors of the change ... Not requiring the
    participation of a disconnecting node is an important feature in a
    P2P system where nodes can come and go at will."

    All RI traffic is charged to the given counters. *)

val connect : Network.t -> int -> int -> counters:Message.counters -> unit
(** Establish the link, exchange aggregated RIs (two update messages),
    then propagate outward from both endpoints.
    @raise Invalid_argument if the link already exists, the endpoints
    are equal, or this would create a cycle on a network built with the
    CRI/[No_op] combination (which cannot tolerate cycles). *)

type connect_result = Connected | Rejected_cycle

val connect_avoiding_cycles :
  Network.t -> int -> int -> counters:Message.counters -> connect_result
(** The {e cycle avoidance} policy of Section 7: "we do not allow nodes
    to create an 'update' connection to other nodes if such connection
    would create a cycle".  If the endpoints are already connected
    through the overlay the request is refused (at the cost of one probe
    message, charged to the counters); otherwise behaves as {!connect}.
    The paper's caveat applies: "in the absence of global information we
    may end [up] with a suboptimal update network". *)

val disconnect_link : Network.t -> int -> int -> counters:Message.counters -> unit
(** Drop the link; each endpoint removes the other's row and propagates
    its shrunken aggregate.  @raise Invalid_argument if absent. *)

val disconnect_node : Network.t -> int -> counters:Message.counters -> int list
(** Take a node off the network: every neighbor detects the loss,
    removes the row, and propagates — without any participation of the
    departed node.  Returns the former neighbor list.  The departed
    node's own RI rows are cleared locally (no messages), so a later
    {!connect} behaves like the fresh join of Section 5.1. *)

(** {2 Crash-stop churn (fault injection)}

    Unlike {!disconnect_node} — where the neighbors notice the closed
    connection immediately and clean up in one synchronized step — a
    crash-stopped node just goes silent.  The overlay still routes
    messages at it; each neighbor discovers the death independently,
    when its own query forward exhausts its retries ({!Query.run} with
    a plan), and repairs spread lazily rather than by an eager wave. *)

val crash_stop : Network.t -> int -> plan:Fault.t -> unit
(** Kill the node in the plan's failure model.  No messages, no RI
    changes, no adjacency change: the silence {e is} the fault.
    @raise Invalid_argument on an out-of-range node. *)

val detect_crash : Network.t -> int -> dead:int -> plan:Fault.t -> bool
(** [detect_crash net u ~dead ~plan]: node [u] has presumed [dead]
    dead (every retry timed out).  Removes [u]'s row for the corpse (a
    repair: the garbage entry would otherwise keep attracting
    queries), records the death certificate, and marks [u] dirty so
    its next contacts reconcile.  Returns [false] if [u] already
    knew. *)

val reconcile :
  Network.t -> int -> int -> plan:Fault.t -> counters:Message.counters -> unit
(** Lazy anti-entropy on first contact: the two endpoints exchange
    full current aggregates (two update messages), overwriting both
    rows and healing any recorded missed-update gaps, and gossip their
    presumed-dead lists — each side drops rows for newly learned
    corpses and becomes dirty in turn, so death certificates percolate
    along future query paths instead of by broadcast. *)

(** {2 Crash-recovery}

    A recovered node rejoins in one of two states: {e amnesiac} (the
    crash lost the RI; only the local index survives) or {e stale}
    (it replays a persisted row image from before the crash).  Either
    way it re-announces itself to its neighbors like the fresh join of
    Section 5.1 and relies on anti-entropy ({!Update.anti_entropy}) or
    ordinary waves to finish converging. *)

type rejoin =
  | Amnesiac  (** rejoin with an empty RI; every live link opens a gap *)
  | Stale_state of Bytes.t
      (** rejoin replaying a {!persist_rows} image taken before the
          crash *)

val persist_rows : Network.t -> int -> Bytes.t
(** Serialize one node's RI rows: IEEE float bits, little-endian, rows
    in increasing peer order — so persist → restore round-trips
    bit-identically.
    @raise Invalid_argument on an out-of-range node or an RI-less
    network. *)

val recover :
  ?on_event:(Update.event -> unit) ->
  Network.t ->
  int ->
  rejoin:rejoin ->
  plan:Fault.t ->
  counters:Message.counters ->
  unit
(** Bring a crash-stopped node back.  Revokes every death certificate
    naming it ({!Fault.revive}) {e before} anything is announced, so
    certificate gossip cannot re-delete the fresh rows; installs the
    rejoin state (amnesiac: no rows + a recorded gap per live link;
    stale: the persisted image, rows toward since-vanished links
    dropped); marks the node dirty; and re-announces with a full
    {!Update.propagate} — subject to the plan's faults like any other
    wave.
    A stale image is decoded and checked whole before anything changes:
    its payload shape, hop count and summary widths must match the
    node's index, every cell must be finite and non-negative, and no
    bytes may trail the last row.  A refused image raises
    [Invalid_argument "Churn.recover: corrupt stale state: ..."] and
    leaves the node crash-stopped with its rows unchanged.
    @raise Invalid_argument if the node is out of range, not currently
    crash-stopped, or the stale image is corrupt. *)
