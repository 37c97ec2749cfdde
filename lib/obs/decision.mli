(** Per-hop routing-decision provenance.

    The counters say {e that} an RI-guided query beat the baseline; this
    recorder captures {e why each hop was chosen}: for every forwarding
    step, the candidate-neighbor goodness vector the routing index
    produced, the counterfactual ground-truth-best neighbor (oracle
    reachability with the deciding node removed and crash-stopped nodes
    skipped), the staleness and update-wave lineage of each consulted RI
    row, and the follow / backtrack / timeout / stop skeleton of the
    walk.

    Records are the [Decisions] entries of the per-trial {!Span} log:
    they are recorded when [Span.start] names [Decisions], into the
    trial's one sink, and merge by the log's [(unit, trial)] rule, so
    Decision output is byte-identical at any [--jobs] width.  When the
    kind is off, every capture site is one {!is_live} branch, keeping
    the query hot path unchanged. *)

type candidate = {
  peer : int;
  goodness : float;
      (** the RI's goodness estimate (0 under No-RI forwarding) *)
  truth : int;
      (** oracle: matching documents actually reachable through this
          candidate, BFS over live links with the deciding node removed *)
  stale : bool;  (** row demoted by the fault plane's staleness ledger *)
  wave : int;
      (** logical update-wave id that last wrote this row; 0 means the
          row is untouched since network construction *)
}

type record =
  | Decide of {
      node : int;
      from : int;  (** -1 at the origin *)
      scheme : string;  (** [Scheme.kind_name], or ["none"] for No-RI *)
      candidates : candidate list;  (** in forwarding (rank) order *)
      oracle_best : int;
          (** candidate with the most reachable results (ties toward the
              smaller peer id) *)
      oracle_rank : int;
          (** position of [oracle_best] in the forwarding order — the
              rank regret of the estimate (0 = the RI chose the true
              best) *)
      regret : int;
          (** [oracle_best]'s reachable results minus the first
              candidate's — the count regret of the choice *)
      stale_demoted : int;  (** candidates demoted below the fresh rows *)
    }
  | Follow of { node : int; target : int; rank : int }
      (** the walk advanced to [target], the [rank]-th candidate tried *)
  | Backtrack of { node : int; target : int }
      (** the walk returned from [node] to [target]: the subtree under
          [node] is exhausted, or a revisited [node] bounced the query
          straight back.  Abandoned forwards (every retry timed out)
          leave only their {!Timeout} records — no [Follow] was emitted,
          so no [Backtrack] balances one. *)
  | Timeout of { node : int; target : int; attempt : int }
      (** fault plane: the forward to [target] got no acknowledgment *)
  | Stop of {
      reason : string;  (** ["satisfied"], ["exhausted"] or ["budget"] *)
      found : int;
      forwards : int;
      returns : int;
      visited : int;
    }

val is_live : Span.sink -> bool
(** Whether the sink records decisions — lets capture sites (including
    the per-candidate oracle BFS) skip all work when provenance is
    off. *)

val emit : Span.sink -> record -> unit
(** Buffer one record.  No-op unless the sink records decisions. *)

val records : unit -> ((int * int) * record list) list
(** Merged snapshot, sorted by [(unit, trial)]. *)

val render_jsonl : unit -> string
(** One JSON object per line, [kind]-tagged:
    [{"unit":u,"trial":t,"seq":s,"kind":"decide",...}].  Deterministic
    bytes at any pool width. *)

val export_jsonl : string -> unit
