(** Shared helpers for the per-figure experiment modules. *)

val query_messages :
  Ri_sim.Config.t ->
  spec:Ri_sim.Runner.spec ->
  Ri_util.Stats.summary
(** Mean query-processing messages over trials, run to the confidence
    target.  Trials execute on the global pool
    ({!Ri_util.Pool.global}). *)

val update_messages :
  Ri_sim.Config.t ->
  spec:Ri_sim.Runner.spec ->
  Ri_util.Stats.summary
(** Mean messages for one propagated batch of updates. *)

val ri_searches : Ri_sim.Config.t -> (string * Ri_sim.Config.search) list
(** [CRI; HRI; ERI] with the config's parameters. *)

val all_searches : Ri_sim.Config.t -> (string * Ri_sim.Config.search) list
(** [CRI; HRI; ERI; No-RI]. *)
