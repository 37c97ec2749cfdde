(** Offline observability dashboard: aggregate run artifacts — Decision
    JSONL, a Prometheus metrics dump, a traffic sweep and its timeline —
    into tables rendered as Markdown or a self-contained HTML page.

    Each ingester is independent.  {!of_decisions} and {!of_metrics}
    return [None] on input they cannot use rather than failing, so the
    report simply shows the sections it was given valid inputs for; the
    traffic ingesters are strict (see {!of_traffic}). *)

type table = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

val of_decisions : string -> table option
(** Aggregate Decision JSONL text (see {!Ri_obs.Decision.render_jsonl})
    into a per-scheme routing-quality table: decision/follow/backtrack
    counts, timeout and stale-demotion totals, mean oracle rank,
    oracle-agreement rate and mean count regret.  [None] when the text
    holds no parseable records. *)

val of_metrics : string -> table option
(** A flat metric/value table from Prometheus text exposition (comment
    lines skipped).  [None] on empty input. *)

val of_traffic : Ri_util.Json.t -> (table list, string) result
(** Tables from a parsed [risim traffic --json] document: the knee
    chart (p50 text bars per swept QPS), the latency-decomposition
    stacked bars (queue / service / link per completed query) and the
    per-point hotspot table.  Unlike the other ingesters this one is
    strict — the input is a machine-written artifact, so a missing or
    mistyped field is reported as [Error] naming the point (and
    hotspot) index rather than silently dropped. *)

val of_timeline : string -> (table, string) result
(** A per-(unit, trial) bin table from timeline JSONL (see
    {!Ri_obs.Observatory.render_jsonl}); strict like {!of_traffic},
    with errors naming the offending line. *)

val render_markdown : title:string -> table list -> string

val render_html : title:string -> table list -> string
(** Self-contained page, no external assets. *)
