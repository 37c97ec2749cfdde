(** Traffic observatory: latency decomposition, per-node hotspot
    attribution and a logical-time timeline for the discrete-event
    engine.

    The open-loop driver ({!Ri_experiments.Traffic}) reports merged
    end-to-end quantiles; this module breaks them open.  Everything is
    stamped in logical nanoseconds and buffered per trial, so every
    rendered artifact is a pure function of [(seed, trial)] — timeline
    bins are the [Timeline] entries of the per-trial {!Span} log, merge
    by its [(unit, trial)] rule like the events and {!Decision}
    records, and are byte-identical at any [--jobs] width.  Timeline
    recording is off by default; when off, a capture site costs one
    [is_live] load and branch.

    {b Decomposition invariant.}  A completed query's end-to-end
    latency is the exact integer sum of its per-hop components:
    queue-wait + service + link-transit over the hop chain.  The chain
    is sequential — each handler fires at its message's service end and
    immediately emits the next send — so no time is unaccounted; the
    traffic tests pin [decomp_exact] over every completed query. *)

(** {2 Latency decomposition} *)

(** Accumulated split of completed-query latency.  All fields are sums
    over queries, in logical nanoseconds. *)
type decomp = {
  mutable d_queries : int;
  mutable d_total_ns : int;  (** end-to-end: completion - arrival *)
  mutable d_queue_ns : int;  (** time spent waiting in mailboxes *)
  mutable d_service_ns : int;  (** time spent being serviced *)
  mutable d_link_ns : int;  (** time spent crossing links *)
}

val decomp_zero : unit -> decomp

val decomp_add :
  decomp -> total_ns:int -> queue_ns:int -> service_ns:int -> link_ns:int -> unit
(** Fold one completed query in. *)

val decomp_merge : into:decomp -> decomp -> unit

val decomp_exact : decomp -> bool
(** [true] iff queue + service + link sums exactly to end-to-end — the
    decomposition invariant, which must hold for every accumulation of
    sequential hop chains. *)

val decomp_queue_share : decomp -> float
(** Fraction of end-to-end time spent queueing ([0] when empty) — the
    measured form of the saturation claim: past the knee this
    dominates. *)

(** {2 Per-node hotspot attribution} *)

(** Flat per-node accumulators, element-wise mergeable across trials
    of identically sized networks ([a_peak] merges with max). *)
type node_acc = {
  nodes : int;
  a_arrivals : int array;
  a_completions : int array;
  a_busy_ns : int array;
  a_wait_ns : int array;
  a_peak : int array;
  a_critical : int array;
      (** completed queries whose largest queue-wait hop was at this
          node — the critical-hop attribution *)
}

val acc_create : int -> node_acc
(** @raise Invalid_argument on a non-positive node count. *)

val acc_merge : into:node_acc -> node_acc -> unit
(** @raise Invalid_argument on a node-count mismatch. *)

(** One row of the top-K hotspot table. *)
type hotspot = {
  h_node : int;
  h_arrivals : int;
  h_completions : int;
  h_busy_ns : int;
  h_wait_ns : int;
  h_peak : int;
  h_critical : int;
  h_utilization : float;  (** busy-ns over the makespan *)
}

val hotspots : node_acc -> makespan_ns:int -> k:int -> hotspot list
(** The [k] hottest nodes that saw any traffic, ranked by queue-wait-ns
    (then busy-ns, then node id — a total, deterministic order).  Empty
    when [k <= 0]. *)

val hotspot_json : hotspot -> string
(** One strict-JSON object — the rows of the traffic JSON's
    [q_hotspots] section. *)

(** {2 Timeline} *)

val is_live : Span.sink -> bool
(** Whether the trial's sink records timeline bins. *)

(** One exported timeline bin: activity within
    [[t_start_ns, t_start_ns + t_width_ns)]; aggregate depth is the
    engine-wide waiting backlog ({!Ri_sim.Engine.backlog} convention —
    in-service messages excluded) sampled at each recorded event. *)
type bin = {
  t_bin : int;
  t_start_ns : int;
  t_width_ns : int;
  t_arrivals : int;
  t_completions : int;
  t_depth_sum : int;
  t_samples : int;
  t_depth_peak : int;
}

(** A fixed-bin ring over logical time, owned by one trial.  Events
    past the last bin (the drain overhang of a saturated sweep) clamp
    into it, keeping the export's shape bounded and pre-known. *)
module Timeline : sig
  type t

  val create : bins:int -> width_ns:int -> t
  (** @raise Invalid_argument unless both are positive. *)

  val arrival : t -> at:int -> depth:int -> unit

  val completion : t -> at:int -> depth:int -> unit

  val flush : t -> Span.sink -> unit
  (** Push the non-empty bins, in bin order, into the trial's sink.
      No-op on a dead sink. *)
end

(** {2 Export} *)

val render_jsonl : unit -> string
(** One strict-JSON object per bin, sorted by (unit, trial, bin) —
    byte-identical at any pool width. *)

val export_jsonl : string -> unit
