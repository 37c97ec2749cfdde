(** Low-overhead counters, gauges and quantile summaries behind one
    global registry.

    Instrumented modules register their metrics once at module-init
    time; registration is always live so {!render} can enumerate the
    full schema.  {e Recording} is gated by one atomic flag: when
    observability is off (the default — call {!set_enabled} to turn it
    on) every record operation is a single load-and-branch, which keeps
    instrumented hot paths within the sub-1% overhead budget.

    Counters and gauges are atomics, so trial code running on pool
    worker domains records concurrently without locks.  A summary is a
    {!Sketch.t} under its own mutex; every quantity a sketch
    accumulates commutes, so its state does not depend on the order
    domains record in.  The registry mutex only guards registration and
    enumeration. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Off at start.  [risim --metrics], [--serve-obs] and the trace
    recorder turn it on for their own run. *)

type counter

type gauge

type summary

val counter :
  ?help:string -> ?labels:(string * string) list -> string -> counter
(** [counter name] registers (or retrieves — registration is idempotent
    per [(name, labels)]) a monotonically increasing counter.
    @raise Invalid_argument if [name]+[labels] is already registered as
    a different metric kind. *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge

val summary :
  ?help:string -> ?labels:(string * string) list -> string -> summary
(** A quantile summary over a {!Sketch.t} with the default relative
    error: per-query message counts, hops and wire bytes, per-wave
    costs, per-phase wall clock.  Its sum is held in whole
    micro-units per observation ({!Sketch.sum}). *)

val incr : counter -> unit

val add : counter -> int -> unit

val set : gauge -> float -> unit

val observe : summary -> float -> unit

val counter_value : counter -> int

val gauge_value : gauge -> float

val snapshot : summary -> Sketch.t
(** A private copy of the summary's current sketch. *)

val reset : unit -> unit
(** Zero every registered value; registrations are kept. *)

val render : unit -> string
(** Prometheus text exposition format, metrics sorted by name then
    labels (deterministic output for diffing).  A summary prints one
    [name{quantile="q"}] sample for q in 0.5, 0.9, 0.95, 0.99 and
    0.999, then [name_sum] and [name_count]. *)

val render_json : unit -> string
(** One JSON object mapping each summary's ["name{labels}"] to
    {!Sketch.snapshot_json}, in {!render}'s order — the [sketches]
    field of the [/progress] endpoint. *)
