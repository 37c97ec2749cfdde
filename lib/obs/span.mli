(** The per-trial log: the one store every recorder writes to.

    Three kinds of entry share one recording state, one unit counter,
    one lock and one sink per trial:

    - {b events}: every simulated message is recorded once, as a span.
      A query span parents its per-hop, retry and fallback children; an
      update-wave span parents its per-round children, which parent
      their deliveries.  The span view ({!render_jsonl},
      {!render_chrome}, {!render_otlp}) draws the causal tree.  The flat
      view ({!render_flat_jsonl}, {!render_flat_chrome}, what [--trace]
      writes) prints, per trial and in push order, every non-root span
      under its flat name plus the flat-only {!point} entries.  Both read
      the same entries, so they cannot disagree on what happened.
    - {b decisions}: the per-hop routing provenance of {!Decision}.
    - {b timeline}: the traffic engine's logical-time bins of
      {!Observatory}.

    {!entry} is extensible: {!Decision} and {!Observatory} each add
    their own constructor and read their own {!view}.  Each kind
    records only when {!start} names it; a kind left off collects
    nothing, and turning it on changes no byte of another kind's export.

    Merge rule: entries are buffered in the trial's sink on whichever
    domain runs the trial and merged, when the trial body returns, into
    one store keyed by [(unit, trial)].  [unit] is bumped by
    {!next_unit} once per data point on the submitting domain, so keys
    never depend on the pool width.  Span identity is deterministic too:
    the span id is the per-trial creation index and timestamps are
    per-trial logical ticks.  Exported ids derive from
    [(unit, trial, sid)] ([trace_id]/[span_id] for the OTLP form,
    ["unit:trial:sid"] for Chrome flow events), so every export is
    byte-identical at any [--jobs] width, including faulty trials. *)

(** {2 Recording} *)

type kind =
  | Events  (** message spans and flat points: [--trace], [--spans] *)
  | Decisions  (** routing provenance: [--decisions] *)
  | Timeline  (** traffic timeline bins: [--timeline] *)

val start : kind list -> unit
(** Record these kinds from the next trial on.  Already-collected
    entries are kept: a second [start] after {!stop} appends to them;
    {!clear} drops them. *)

val stop : unit -> unit
(** Stop recording every kind; collected entries stay for export. *)

val recording : kind -> bool

val clear : unit -> unit
(** Drop every collected entry and reset the unit counter (so a fresh
    run numbers from zero again). *)

val next_unit : unit -> unit
(** Advance the unit-of-work id (one per data point); trials recorded
    afterwards key under the new unit.  No-op when no kind is
    recording. *)

type sink
(** Per-trial recording handle: the trial's buffer, the kinds it
    records, and its span-id and tick counters.  Not domain-safe —
    confined to the domain running the trial. *)

val null : sink
(** Inert sink: records no kind. *)

val with_trial : trial:int -> (sink -> 'a) -> 'a
(** Run one trial's body with a sink recording the kinds on at entry
    ({!null} when none is); merges the trial's entries into the store
    on exit, even on exception.  Two [with_trial] calls with the same
    key append in call order. *)

val live : kind -> sink -> bool
(** Whether the sink records this kind — lets a capture site skip
    building hooks and argument lists entirely. *)

val is_live : sink -> bool
(** [live Events]. *)

(** {2 Entries} *)

type entry = ..

val push : kind -> sink -> entry -> unit
(** Buffer an entry of that kind; no-op unless the sink records it. *)

val view : (entry -> 'a option) -> ((int * int) * 'a list) list
(** The collected entries [f] keeps, grouped by [(unit, trial)] and
    sorted by key; within a trial, in push order.  Trials left empty
    are dropped. *)

(** {2 Events} *)

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

type span
(** Handle to an open (or finished) span, used to parent children. *)

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

val export : string -> (unit -> string) -> unit
(** [export path render] writes [render ()] to [path]; every recorder's
    [export_*] is one. *)

val export_jsonl : string -> unit

val export_chrome : string -> unit

val export_otlp : string -> unit

val export_flat_jsonl : string -> unit

val export_flat_chrome : string -> unit
