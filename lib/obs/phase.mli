(** Wall-clock phase profiling of the trial pipeline (topology gen →
    placement → RI build → query/update execution), recorded as
    [ri_phase_wall_seconds{phase=...}] summaries in the {!Metrics}
    registry.

    Phase timings are wall clock and therefore {e not} part of the
    deterministic event log — see {!Span}. *)

val time : string -> (unit -> 'a) -> 'a
(** [time phase f] runs [f], observing its duration under [phase] when
    metrics are enabled — into the phase's summary and the per-phase GC
    delta accumulator ({!Gcprof}); exactly [f ()] otherwise. *)

val current : unit -> string
(** The most recently entered (still running) phase, [""] outside any —
    what the [/progress] endpoint reports.  Nested phases restore the
    enclosing name on exit. *)

val totals : unit -> (string * int * float) list
(** [(phase, samples, total_seconds)] for every phase seen so far,
    sorted by name, from the phase's summary: the total is a sum of
    whole microseconds, each sample rounded once ({!Sketch.sum}). *)
