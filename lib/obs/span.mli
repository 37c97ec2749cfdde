(** The per-trial event log: causal spans, rendered as two views.

    Every simulated message is recorded once, as a span: a query span
    parents its per-hop, retry and fallback children; an update-wave
    span parents its per-round children, which parent their
    deliveries.  Buffering and merging follow the {!Keyed_log} rule —
    per-trial sinks, merged by [(unit, trial)] — so every export is
    byte-identical at any [--jobs] width, including faulty trials.

    The span view ({!render_jsonl}, {!render_chrome}, {!render_otlp})
    draws the causal tree.  The flat view ({!render_flat_jsonl},
    {!render_flat_chrome}, what [--trace] writes) prints, per trial and
    in push order, every non-root span under its flat name plus the
    flat-only {!point} entries.  Both read the same log, so they cannot
    disagree on what happened.

    Span identity is fully deterministic: the span id is the per-trial
    creation index and timestamps are per-trial logical ticks, both
    functions of [(unit, trial, seq)] only.  Exported ids derive from
    that triple ([trace_id]/[span_id] for the OTLP form,
    ["unit:trial:sid"] for Chrome flow events). *)

type arg = Int of int | Float of float | Str of string | Bool of bool

type record = {
  sid : int;  (** per-trial creation index *)
  parent : int;  (** parent sid, [-1] for a root *)
  name : string;
  cat : string;
  t0 : int;  (** logical tick at enter *)
  mutable t1 : int;  (** logical tick at finish *)
  mutable args : (string * arg) list;
}

type flat_event = {
  f_name : string;
  f_cat : string;
  f_args : (string * arg) list;
}
(** One entry of the flat view. *)

type sink
(** Per-trial recording handle: a {!Keyed_log} sink plus the trial's
    span-id and tick counters.  Not domain-safe — confined to the
    domain running the trial. *)

type span
(** Handle to an open (or finished) span, used to parent children. *)

val null : sink
(** Inert sink: [enter] returns a dummy, [finish] and [point] are
    no-ops. *)

val is_live : sink -> bool
(** [false] on {!null} or when recording was off at trial start — lets
    instrumentation skip building hooks and argument lists entirely. *)

val recording : unit -> bool

val start : unit -> unit
(** Enable recording.  Already-collected spans are kept: a second
    [start] after {!stop} appends to them; {!clear} drops them. *)

val stop : unit -> unit
(** Stop recording; already-collected spans are kept for export. *)

val clear : unit -> unit
(** Drop every collected span and reset the unit counter (so a fresh
    run numbers from zero again). *)

val next_unit : unit -> unit
(** Advance the unit-of-work id (one per data point); trials recorded
    afterwards key under the new unit.  No-op when not recording. *)

val with_trial : trial:int -> (sink -> 'a) -> 'a
(** Run one trial's body with a live sink (inert when recording is
    off); publishes the trial's spans into the shared store on exit,
    even on exception.  Two [with_trial] calls with the same key append
    in call order. *)

val enter : sink -> ?parent:span -> ?cat:string -> string -> (string * arg) list -> span
(** Open a span.  [cat] defaults to ["sim"]. *)

val finish : sink -> span -> ?args:(string * arg) list -> unit -> unit
(** Close a span, stamping its end tick and appending [args]. *)

val instant :
  sink -> ?parent:span -> ?cat:string -> string -> (string * arg) list -> span
(** [enter] immediately followed by [finish]: a point-like child (one
    hop, one retry) that still carries causal order. *)

val point : sink -> cat:string -> string -> (string * arg) list -> unit
(** A flat-only entry (a query's stop line, a traffic completion): it
    takes its place in the flat view's push order but no span id and
    no tick, so the span view never sees it. *)

val spans : unit -> ((int * int) * record list) list
(** Collected spans grouped by [(unit, trial)], sorted by key;
    within a trial, in creation (= sid) order. *)

val flat_events : unit -> ((int * int) * flat_event list) list
(** The flat view grouped by [(unit, trial)], sorted by key; within a
    trial, in push order.  Five span names read differently here:
    [hop] is [forward], [retry] is [timeout], [deliver] is
    [update_hop], [drop] is [update_dropped] and [delay] is
    [update_delayed]. *)

val trace_id : int -> int -> string
(** [trace_id unit trial]: 32-hex OTLP trace id for one data point. *)

val span_id : int -> int -> int -> string
(** [span_id unit trial sid]: 16-hex OTLP span id. *)

val render_jsonl : unit -> string
(** One JSON object per span per line, in deterministic
    [(unit, trial, sid)] order. *)

val render_chrome : unit -> string
(** [chrome://tracing] / Perfetto JSON: a complete ("X") event per span
    (pid = unit, tid = trial, ts/dur = logical ticks) plus "s"/"f" flow
    events drawing each parent→child edge. *)

val render_otlp : unit -> string
(** OTLP/HTTP-shaped JSON ([resourceSpans]/[scopeSpans]/[spans]), with
    logical ticks in the time fields. *)

val render_flat_jsonl : unit -> string
(** The flat view, one JSON object per line:
    [{"unit":u,"trial":t,"seq":s,"cat":...,"name":...,"args":{...}}],
    [seq] numbering the trial's flat entries. *)

val render_flat_chrome : unit -> string
(** The flat view as Chrome [trace_event] JSON: instant events with
    [pid = unit], [tid = trial], [ts = seq]. *)

val export_jsonl : string -> unit

val export_chrome : string -> unit

val export_otlp : string -> unit

val export_flat_jsonl : string -> unit

val export_flat_chrome : string -> unit
