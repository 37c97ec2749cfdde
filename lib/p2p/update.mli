(** RI update propagation — the update phase of the Figure 6 algorithm.

    When a node's local index changes it "aggregates all the rows of its
    compound RI (excluding the row for [the target neighbor]) and sends
    this information" to each neighbor; a receiver replaces the sender's
    row and, {e if the change is significant}, re-exports to its own
    other neighbors, and so on.  Messages are counted so the update-cost
    experiments (Figures 18-20) can be reproduced.

    Significance combines the paper's two criteria: the [minUpdate]
    relative test ("we consider significant all updates that may change
    the current index value by more than 1%", Section 8.2) and the
    absolute Euclidean floor suggested for exponential RIs ("requiring
    that the Euclidean distance between the two vectors is greater than
    a certain number", Section 6.2).

    Each message carries the sender's {e pre-change} export alongside
    the new one, and receivers judge significance against that baseline:
    the wave then measures exactly the marginal effect of the update —
    the honest cost of the change — even on cyclic overlays, where the
    resting RI state is not a strict fixed point of the export
    equations.

    Under the [Detect_recover] cycle policy the wave carries the
    originator's message id and a node reached a second time does not
    forward further; under [No_op] the wave is damped only by the
    significance tests (which is why a compound RI — no decay — must not
    run [No_op] on a cyclic overlay).

    {b Delta encoding.}  Each sent message additionally charges
    [counters.update_wire_bytes] with its simulated wire size: the
    sender diffs the new aggregate against the seed's baseline (its last
    acknowledged export to that neighbor) and ships sparse
    (index, delta) pairs when smaller than the dense absolute vector
    ({!Message.wire_delta_bytes} vs {!Message.wire_full_bytes}).  First
    contact and anti-entropy repair go dense.  Row state is still
    applied as the absolute payload — float addition is not exactly
    invertible, and the bit-for-bit determinism contract requires the
    receiver to end with the sender's exact floats — so the encoding is
    a byte-accounting model, never a semantic change. *)

type wave_seed = {
  sender : int;
  receiver : int;
  payload : Ri_core.Scheme.payload;  (** the new aggregated RI *)
  baseline : Ri_core.Scheme.payload option;
      (** the sender's export before the change; when [None] the
          receiver falls back to comparing against its stored row *)
  tainted : bool;
      (** staleness bit: the sender had an open missed-update gap on
          some other row when it aggregated, so this payload is built
          from suspect inputs; the delivery still refreshes the
          receiver's row but cannot heal a recorded gap
          ({!Fault.tainted}).  Always [false] without a fault plan. *)
}

(** One delivered update message, emitted through the [on_event]
    callbacks — the hop-level trace behind the counters. *)
type event =
  | Delivered of {
      sender : int;
      receiver : int;
      significant : bool;  (** passed the minUpdate / distance tests *)
      forwarded : bool;
          (** re-exported onward; [false] on an insignificant delivery
              or a detect-and-recover repeat *)
    }
  | Dropped of { sender : int; receiver : int; dead : bool }
      (** fault injection: lost in transit ([dead = false]) or
          addressed to a crash-stopped node ([dead = true]) *)
  | Delayed of { sender : int; receiver : int; rounds : int }
      (** fault injection: held in transit, applied [rounds] message
          generations later *)
  | Round of { index : int; pending : int }
      (** a message generation begins with [pending] messages queued;
          emitted before any delivery of the round, including round 0 —
          the span tracer hangs its per-round children off these *)
  | Repaired of { u : int; v : int }
      (** anti-entropy: the [(u, v)] digest exchange found the link
          stale and both endpoints swapped full aggregates *)

val local_change :
  ?on_event:(event -> unit) ->
  ?plan:Fault.t ->
  Network.t ->
  origin:int ->
  summary:Ri_content.Summary.t ->
  counters:Message.counters ->
  unit
(** Install [summary] as [origin]'s new (uncompressed) local summary and
    propagate the change.  This is the paper's canonical update: "client
    I introduces two new documents ... To update the RIs of its
    neighbors, I summarizes its new local index, aggregates ... and
    sends". *)

val propagate :
  ?on_event:(event -> unit) ->
  ?plan:Fault.t ->
  Network.t ->
  origin:int ->
  counters:Message.counters ->
  unit
(** Propagate from a node whose RI was already modified, judging
    significance against the receivers' stored rows.  Exact on trees
    (where the resting state is the true fixed point); for cyclic
    overlays prefer {!local_change} or {!seeds_for_change}, whose
    baseline-carrying messages isolate the marginal change. *)

val seeds_for_change :
  ?plan:Fault.t ->
  Network.t ->
  at:int ->
  except:int list ->
  mutate:(unit -> unit) ->
  wave_seed list
(** Run [mutate] (which must only alter node [at]'s RI — rows, local
    summary, or adjacent links) and return seeds pairing [at]'s exports
    from before and after the mutation, addressed to every current
    neighbor not in [except].  Feed them to {!wave}.  With [plan], the
    seeds carry the staleness bit when [at] has an open gap. *)

val deliver_one :
  ?plan:Fault.t ->
  ?on_event:(event -> unit) ->
  Network.t ->
  reached:Bytes.t ->
  wave_id:int ->
  forward:(wave_seed -> unit) ->
  wave_seed ->
  unit
(** Apply one update message at its receiver — the exact delivery logic
    of {!wave}, exposed so the discrete-event engine can run waves as
    in-flight message streams.  [reached] is the wave's duplicate map
    (one byte per node, ['\001'] = already reached; mutated in place),
    [wave_id] the provenance stamp for rewritten rows, and [forward]
    receives the onward seeds the delivery generates.  The caller owns
    transport: link checks, budget, and the message/wire-byte counters
    are charged at send time, not here.  With zero link latency and
    service time an engine-driven wave delivers in exactly the
    sequential wave's FIFO order, so events and counters match
    {!local_change} bit-for-bit (fault-free; the engine does not model
    the plan's round-delay machinery). *)

val charge : ?plan:Fault.t -> Message.counters -> wave_seed -> unit
(** Count one sent update message in [counters], and its simulated wire
    bytes (sparse delta vs dense full encoding — see the module doc):
    the charge {!wave} makes for every fresh seed, for callers that run
    their own transport. *)

val default_budget : Network.t -> int
(** [20 * (nodes + Σ degree)]: the message budget {!wave} applies when
    given no [max_messages], for callers that run their own transport. *)

val anti_entropy :
  ?on_event:(event -> unit) ->
  plan:Fault.t ->
  Network.t ->
  counters:Message.counters ->
  int
(** One periodic anti-entropy round, the proactive counterpart to
    {!Churn.reconcile}'s lazy first-contact repair.  Every live,
    same-side link [(u, v)] exchanges digests (newest per-row wave
    stamp + link sequence state, {!Message.wire_digest_bytes} each
    way); links where either endpoint has a recorded gap
    ({!Fault.missed}) or un-reconciled fault knowledge ({!Fault.dirty})
    escalate to a two-way dense full exchange, stamp both rows with a
    fresh wave id, clear the gaps whose counterpart was trustworthy
    ({!Fault.tainted} judged pre-exchange), and push the corrected
    aggregates onward as an ordinary significance-damped wave.  A
    digest probing a crash-stopped neighbor gets no reply and doubles
    as a failure detector (certificate + row removal, as
    {!Churn.detect_crash}).

    Repair triggers on the {e gap ledger}, never on comparing row
    content against the neighbor's current aggregate: on a cyclic
    overlay the resting state is not a strict fixed point, so
    content-chasing would re-inject historical drift and count to
    infinity.  Divergence downstream of a repaired link heals through
    the onward waves.

    Returns the number of repairs performed (full exchanges plus corpse
    detections) — [0] means the round found nothing to fix.  Callers
    loop until quiescence with a bounded round cap: on {e cyclic}
    overlays a cycle of mutually tainted gaps can in principle refuse
    to drain (every exchange distrusted by both sides); on forests the
    taint frontier strictly shrinks every round, so the loop terminates
    in at most the gap-graph depth. *)

(** Deferred update batching — "For efficiency, we may delay exporting
    an update for a short time so we can batch several updates, thus
    trading RI freshness for a reduced update cost" (Section 4.3).

    A batcher accumulates local-index changes at one node; {!flush}
    installs the latest state and pays for {e one} propagation, however
    many changes were noted. *)
module Batcher : sig
  type t

  val create : Network.t -> origin:int -> t

  val note_local_change : t -> Ri_content.Summary.t -> unit
  (** Record a new local summary.  Later notes supersede earlier ones
      (the summary is absolute, not a delta).  Nothing is sent. *)

  val pending : t -> int
  (** Changes noted since the last flush. *)

  val flush : t -> counters:Message.counters -> unit
  (** Propagate the accumulated state as a single update batch; no-op
      when nothing is pending. *)
end

val wave :
  ?max_messages:int ->
  ?on_event:(event -> unit) ->
  ?plan:Fault.t ->
  Network.t ->
  seeds:wave_seed list ->
  already_reached:int list ->
  counters:Message.counters ->
  unit
(** Low-level wave driver used by {!local_change}, {!propagate} and
    {!Churn}: deliver the seed messages, then keep exporting from every
    node whose RI changed significantly.  [already_reached] marks nodes
    that count as having seen the wave (for duplicate suppression under
    [Detect_recover]).

    Seeds whose link no longer exists are discarded unsent and uncounted:
    rows drive the exports, so mid-churn a node can still address a
    neighbor that already vanished — and the departed node must never
    relay the wave announcing its own departure.

    [plan] injects faults per message: delivery to a crash-stopped node
    is silently lost, live-link messages are dropped with
    [update_loss] (recorded in the receiver's missed-update ledger) or
    held [delay_waves] extra message generations with [update_delay].
    Every sent message — dropped, delayed or delivered — is counted
    once.  A receiver with a recorded gap from the sender judges the
    arriving absolute aggregate against its stored row (the carried
    baseline never reached it).  A clean delivery heals the gap; one
    carrying the staleness bit (the sender itself had open gaps)
    refreshes the row with best-effort data but leaves the gap
    recorded.  Omitting [plan] leaves the wave bit-for-bit identical to
    the fault-free simulator.

    An active partition severs every cross-cut message — fresh or
    delayed-in-flight — without consuming randomness; both endpoints
    record the gap, so post-heal anti-entropy knows which rows to
    reconcile.  Each wave that actually sends also ticks the plan's
    scheduled-heal counter ({!Fault.note_wave_start}).

    [max_messages] (default [20 * (nodes + Σ degree)]) bounds the wave:
    on an overlay whose mean degree exceeds the RI's assumed fanout, a
    no-op wave's deltas {e amplify} instead of decaying — the
    Bellman-Ford count-to-infinity failure — and would circulate
    forever.  Real deployments batch and rate-limit updates; the budget
    stands in for that and never binds on configurations where the
    damping works. *)
