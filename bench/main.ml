(* Benchmark harness: reproduces every table and figure of the paper's
   evaluation section (Figures 13-20 plus the flooding comparison) and
   prints each as a table shaped like the published chart, with the
   paper's qualitative finding quoted above it for comparison, then the
   ablations the paper sketches but does not evaluate.  Each report is
   followed by its wall-clock seconds on a line of its own, "(N.Ns)".

   The layer-by-layer cost of these figures is measured by the ledger
   (ledger/README.md), not here.

   Environment knobs:
     RI_NODES       network size (default 10000; paper uses 60000)
     RI_TRIALS      max trials per data point (default 30; the 95%/10% CI
                    rule usually stops earlier)
     RI_JOBS        trial-level parallelism (see Ri_util.Pool) *)

open Ri_util
open Ri_sim

let nodes = Env.int "RI_NODES" 10000

(* Fewer trials trade precision for wall clock. *)
let spec =
  let d = Runner.default_spec in
  let m = Env.int ~min:1 "RI_TRIALS" d.Runner.max_trials in
  { d with Runner.max_trials = m; min_trials = min d.Runner.min_trials m }

let base = Config.scaled Config.base ~num_nodes:nodes

let run_section entries =
  List.iter
    (fun e ->
      let t0 = Unix.gettimeofday () in
      let report = e.Ri_experiments.Registry.run ~base ~spec in
      let dt = Unix.gettimeofday () -. t0 in
      Ri_experiments.Report.print report;
      Printf.printf "(%.1fs)\n\n%!" dt)
    entries

let () =
  Printf.printf
    "=====================================================================\n\
     Routing Indices for Peer-to-Peer Systems - evaluation reproduction\n\
     NumNodes=%d  QR=%d  trials<=%d  target CI rel-error<=%.0f%%  jobs=%d\n\
     (paper scale is NumNodes=60000; shapes, not absolute counts, carry)\n\
     =====================================================================\n\n"
    base.Config.num_nodes base.Config.query_results spec.Runner.max_trials
    (100. *. spec.Runner.target_rel_error)
    (Pool.jobs (Pool.global ()));
  run_section Ri_experiments.Registry.all;
  Printf.printf
    "---------------------------------------------------------------------\n\
     Extensions the paper sketches but does not evaluate (ablations)\n\
     ---------------------------------------------------------------------\n\n";
  run_section Ri_experiments.Registry.extensions;
  Printf.printf "%s\n%s\n\n%!" (Telemetry.cache_line ()) (Telemetry.pool_line ())
