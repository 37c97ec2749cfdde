(* Metric names, units and directions.  The bounds live in
   BENCHMARK.json alone; [Ledger smoke] checks that file against these
   lists so the two cannot drift apart. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* Reported per workload as median and quartiles over the untraced
   reps.  [ok_share] is 1 - failed_share: units that neither raised nor
   produced a digest other than the reference, over units attempted —
   inverted so that it is never 0. *)
let end_to_end =
  [
    ("wall_s", "s", Lower);
    ("setup_s", "s", Lower);
    ("sim_msgs_per_s", "1/s", Higher);
    ("peak_rss_mb", "MB", Lower);
    ("ok_share", "share", Higher);
  ]

(* From the traced rep.  The flag marks counts that are a pure function
   of (workload, seed, scale): two runs of one program must agree on
   them exactly, so [compare] diffs them without a bound. *)
let per_layer =
  [
    ("topology.self_s", "s", Lower, false);
    ("topology.minor_mwords", "Mwords", Lower, false);
    ("placement.self_s", "s", Lower, false);
    ("ri_build.self_s", "s", Lower, false);
    ("ri_build.builds", "count", Lower, true);
    ("ri_build.ms_per_build", "ms", Lower, false);
    ("ri_build.minor_mwords", "Mwords", Lower, false);
    ("ri_build.promoted_mwords", "Mwords", Lower, false);
    ("setup_cache.network_hit_ratio", "ratio", Higher, true);
    ("setup_cache.graph_hit_ratio", "ratio", Higher, true);
    ("query.self_s", "s", Lower, false);
    ("query.messages", "count", Lower, true);
    ("query.ns_per_message", "ns", Lower, false);
    ("query.minor_mwords", "Mwords", Lower, false);
    ("query.inline_ns_per_message", "ns", Lower, false);
    ("update.self_s", "s", Lower, false);
    ("update.drift_s", "s", Lower, false);
    ("update.messages", "count", Lower, true);
    ("update.waves", "count", Lower, true);
    ("update.useful_ratio", "ratio", Higher, true);
    ("update.wire_mb", "MB", Lower, true);
    ("fault.timeouts", "count", Lower, true);
    ("fault.retries", "count", Lower, true);
    ("fault.stale_fallbacks", "count", Lower, true);
    ("fault.update_drops", "count", Lower, true);
    ("engine.self_s", "s", Lower, false);
    ("engine.deliveries", "count", Lower, true);
    ("engine.ns_per_delivery", "ns", Lower, false);
    ("engine.overhead_ns_per_delivery", "ns", Lower, false);
    ("engine.queue_peak", "count", Lower, true);
    ("engine.queue_mean", "msgs", Lower, true);
    ("export.self_s", "s", Lower, false);
  ]
  @ List.map (fun id -> ("figure." ^ id ^ "_s", "s", Lower, false)) Workloads.figure_ids
  @ [
      ("runner.trials", "count", Lower, true);
      ("runner.units", "count", Lower, true);
      ("gc.minor_mwords", "Mwords", Lower, false);
      ("gc.major_mwords", "Mwords", Lower, false);
      ("gc.major_collections", "count", Lower, false);
      ("unattributed.s", "s", Lower, false);
      ("unattributed.share", "share", Lower, false);
      ("trace.overhead_share", "share", Lower, false);
    ]

let find name =
  List.find_opt
    (fun (n, _, _, _) -> n = name)
    (List.map (fun (n, u, b) -> (n, u, b, false)) end_to_end @ per_layer)

let is_exact name = match find name with Some (_, _, _, e) -> e | None -> false

let unit_of name = match find name with Some (_, u, _, _) -> u | None -> ""

let better_of name = match find name with Some (_, _, b, _) -> b | None -> Lower
