(* risim — command-line front end for the Routing Indices simulator.

   Subcommands:
     list               enumerate the paper's experiments
     params             print the active (Figure 12) configuration
     run EXPERIMENT..   reproduce one or more figures
     all                reproduce every figure
     query              run a single query trial and print its metrics
     update             run a single update trial and print its cost
     traffic            open-loop QPS sweep on the discrete-event engine *)

open Cmdliner
open Ri_sim

(* ------------------------------------------------------------------ *)
(* Shared options.                                                     *)

let nodes_t =
  let doc =
    "Network size (NumNodes).  The paper uses 60000; smaller sizes keep \
     wall-clock short and preserve the qualitative shapes."
  in
  Arg.(value & opt int 10000 & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let seed_t =
  let doc = "Master random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let topology_t =
  let topo =
    Arg.enum
      [
        ("tree", Config.Tree);
        ("tree-cycles", Config.Tree_with_cycles { extra_links = 10 });
        ("powerlaw", Config.Power_law_graph);
      ]
  in
  let doc = "Overlay topology: $(b,tree), $(b,tree-cycles) or $(b,powerlaw)." in
  Arg.(value & opt topo Config.Tree & info [ "topology" ] ~docv:"TOPO" ~doc)

let search_names =
  [ ("cri", `Cri); ("hri", `Hri); ("eri", `Eri); ("no-ri", `No_ri); ("flood", `Flood) ]

let search_t =
  let doc = "Search mechanism: $(b,cri), $(b,hri), $(b,eri), $(b,no-ri) or $(b,flood)." in
  Arg.(value & opt (enum search_names) `Eri & info [ "search" ] ~docv:"MECH" ~doc)

let base_config nodes seed =
  let cfg = Config.scaled Config.base ~num_nodes:nodes in
  { cfg with Config.seed }

let search_of cfg = function
  | `Cri -> Config.Ri Config.cri
  | `Hri -> Config.Ri (Config.hri cfg)
  | `Eri -> Config.Ri (Config.eri cfg)
  | `No_ri -> Config.No_ri
  | `Flood -> Config.Flooding { ttl = None }

let spec_of trials rel_error =
  {
    Runner.min_trials = min 5 trials;
    max_trials = trials;
    target_rel_error = rel_error;
  }

(* Fault rates are validated at parse time — [--fault-loss 1.5] is
   refused with a message and a nonzero exit before any simulation
   starts, instead of surfacing later as a config-validation failure
   halfway into a batch.  The range check is [Ri_util.Env.check_float],
   the same policy the traffic driver applies to its options. *)
let prob_conv ~what =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "%s must be a number, got %S" what s))
    | Some v -> (
        match Ri_util.Env.check_float ~min:0. ~max:1. ~what v with
        | Ok v -> Ok v
        | Error msg -> Error (`Msg msg))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%g" v)

let prob_arg name ~docv ~doc =
  Arg.(value & opt (prob_conv ~what:("--" ^ name)) 0. & info [ name ] ~docv ~doc)

(* Same policy for general float flags with a custom range (the traffic
   plane's rates and latencies): refused at parse time with a message
   naming the flag, before any network is built. *)
let float_conv ?min ?max ~what () =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "%s must be a number, got %S" what s))
    | Some v -> (
        match Ri_util.Env.check_float ?min ?max ~what v with
        | Ok v -> Ok v
        | Error msg -> Error (`Msg msg))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%g" v)

(* Integer flags get the same policy: a value outside [min, max] is
   refused at parse time with a message naming the flag. *)
let int_conv ?(max = max_int) ~min ~what () =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= min && v <= max -> Ok v
    | Some _ | None when max = max_int ->
        Error (`Msg (Printf.sprintf "%s must be an integer >= %d, got %S" what min s))
    | Some _ | None ->
        Error
          (`Msg
            (Printf.sprintf "%s must be an integer between %d and %d, got %S" what min
               max s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* An export file is refused at parse time, before any run, when its
   directory is missing or not writable, or when the path names a
   directory.  Nothing is created or truncated here, so a refused run
   leaves an existing file with its bytes. *)
let out_file_conv =
  let parse path =
    let dir = Filename.dirname path in
    let refuse fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt in
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      refuse "directory %s does not exist" dir
    else if Sys.file_exists path && Sys.is_directory path then
      refuse "%s is a directory" path
    else
      match Unix.access dir [ Unix.W_OK ] with
      | () -> Ok path
      | exception Unix.Unix_error _ -> refuse "directory %s is not writable" dir
  in
  Arg.conv (parse, Format.pp_print_string)

let out_file_arg names ~doc =
  Arg.(value & opt (some out_file_conv) None & info names ~docv:"FILE" ~doc)

(* An input file is refused at parse time, before any run, when it is
   missing, names a directory or cannot be read, so no reader meets a
   path it cannot open. *)
let in_file_conv =
  let parse path =
    let refuse fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt in
    if not (Sys.file_exists path) then refuse "%s does not exist" path
    else if Sys.is_directory path then refuse "%s is a directory" path
    else
      match Unix.access path [ Unix.R_OK ] with
      | () -> Ok path
      | exception Unix.Unix_error _ -> refuse "%s is not readable" path
  in
  Arg.conv (parse, Format.pp_print_string)

let in_file_arg names ~doc =
  Arg.(value & opt (some in_file_conv) None & info names ~docv:"FILE" ~doc)

(* The run-length flags, refused at parse time by the same policy:
   [--trials 0] would run no trial, and a target error that is not
   positive can never be met. *)
let trials_t =
  let doc =
    "Maximum trials per data point, at least 1 (the 95%/10% CI rule may \
     stop earlier)."
  in
  Arg.(
    value
    & opt (int_conv ~min:1 ~what:"--trials" ()) 30
    & info [ "trials" ] ~docv:"T" ~doc)

(* Trials count from 0, so a negative index names no trial a run
   would make. *)
let trial_t =
  Arg.(
    value
    & opt (int_conv ~min:0 ~what:"--trial" ()) 0
    & info [ "trial" ] ~docv:"I" ~doc:"Trial index, from 0.")

let rel_error_t =
  let doc = "Target relative error of the 95% confidence interval (> 0)." in
  Arg.(
    value
    & opt (float_conv ~min:1e-9 ~what:"--rel-error" ()) 0.1
    & info [ "rel-error" ] ~docv:"E" ~doc)

(* ------------------------------------------------------------------ *)
(* Fault environment (query subcommand).                               *)

let fault_loss_t =
  prob_arg "fault-loss" ~docv:"P"
    ~doc:
      "Probability that an update message is lost in transit.  Loss only \
       bites when updates actually flow, so pair it with $(b,--fault-drift)."

let fault_crash_t =
  prob_arg "fault-crash" ~docv:"F"
    ~doc:
      "Fraction of nodes crash-stopped before the trial (no goodbye \
       message; neighbors discover the death when a forward times out)."

let fault_delay_t =
  prob_arg "fault-delay" ~docv:"P"
    ~doc:
      "Probability that an update message is delayed (applied whole \
       update waves late) instead of arriving in order."

let fault_drift_t =
  prob_arg "fault-drift" ~docv:"F"
    ~doc:
      "Fraction of the query's results relocated before it runs, each \
       move announced by a corrective update wave subject to the other \
       fault rates — the staleness source."

let fault_partition_t =
  prob_arg "fault-partition" ~docv:"F"
    ~doc:
      "Sever a connected cut of roughly $(docv) of the nodes from the \
       rest: update waves and queries cannot cross until the cut heals \
       ($(b,--fault-heal-waves), or the trial's recovery phase)."

let fault_heal_waves_t =
  let doc =
    "Heal the partition automatically after $(docv) update waves have \
     run against it (default: never — the recovery experiments heal \
     explicitly)."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-heal-waves" ] ~docv:"W" ~doc)

let fault_seed_t =
  let doc =
    "Derive the fault plan's PRNG from $(docv) instead of the master \
     $(b,--seed): the same kills, losses and partition shape replay \
     against differently seeded networks."
  in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED" ~doc)

(* Any active rate turns on the full robustness machinery with the
   fig_faults defaults: two retries with exponential backoff, and rows
   that miss more than one update demoted to random ranking. *)
let fault_spec_of ?(partition = 0.) ?heal_after ~loss ~crash ~delay ~drift () =
  if loss = 0. && crash = 0. && delay = 0. && drift = 0. && partition = 0.
  then Ri_p2p.Fault.none
  else
    {
      Ri_p2p.Fault.none with
      Ri_p2p.Fault.update_loss = loss;
      update_delay = delay;
      delay_waves = 2;
      crash;
      drift;
      partition;
      heal_after;
      stale_after = Some 1;
      retries = 2;
      backoff = 1;
    }

let jobs_t =
  let doc =
    "Domains used to run trials in parallel (0 = all cores minus one).  \
     Results are bit-identical at any width; use $(b,--jobs)=1 to force \
     the sequential path."
  in
  Arg.(
    value
    & opt (int_conv ~min:0 ~what:"--jobs" ()) 0
    & info [ "j"; "jobs" ] ~docv:"J" ~doc)

let apply_jobs jobs = if jobs > 0 then Ri_util.Pool.set_global_jobs jobs

(* ------------------------------------------------------------------ *)
(* Export options: one term shared by run, all, query, update and       *)
(* traffic.                                                            *)

let metrics_t =
  let doc =
    "Write metrics (message counters, per-phase timings, setup-cache hit \
     rates, pool utilization) to $(docv) in Prometheus text format; bare \
     $(b,--metrics) (or $(docv)=$(b,-)) prints them to stdout.  Turns \
     metric recording on for this run."
  in
  (* [-] is stdout; any other value is an export file. *)
  let metrics_conv =
    Arg.conv
      ( (fun s -> if s = "-" then Ok s else Arg.conv_parser out_file_conv s),
        Format.pp_print_string )
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some metrics_conv) None
    & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_t =
  let doc =
    "Record every query hop, backtrack, stop condition and update hop, and \
     write the flat view of the event log to $(docv): one line per message \
     in the order it happened.  $(b,--spans) writes the causal view of the \
     same recording.  Trace timestamps are deterministic logical ticks: \
     the same seed produces byte-identical traces at any $(b,--jobs) \
     width."
  in
  out_file_arg [ "trace" ] ~doc

let trace_format_t =
  let doc =
    "Trace file format: $(b,jsonl) (one event per line) or $(b,chrome) \
     (Chrome trace_event JSON for about://tracing or Perfetto)."
  in
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT" ~doc)

let decisions_t =
  let doc =
    "Record per-hop routing-decision provenance (candidate goodness \
     vectors, oracle-best counterfactuals, staleness and update-wave \
     lineage) and write it to $(docv) as JSONL.  Like $(b,--trace), the \
     output is byte-identical at any $(b,--jobs) width.  Feed the file \
     to $(b,risim report), or use $(b,risim explain) for an annotated \
     single-trial replay."
  in
  out_file_arg [ "decisions" ] ~doc

let spans_t =
  let doc =
    "Record causal spans — a root span per query or update wave \
     parenting per-hop, retry, fallback and per-round children — and \
     write them to $(docv).  This is the causal view of the event log \
     whose flat view $(b,--trace) writes.  Span ids and timestamps are \
     deterministic logical ticks, so the output is byte-identical at any \
     $(b,--jobs) width."
  in
  out_file_arg [ "spans" ] ~doc

let span_format_t =
  let doc =
    "Span file format: $(b,jsonl) (one span per line), $(b,chrome) \
     (Chrome trace_event JSON with flow arrows for Perfetto) or \
     $(b,otlp) (OTLP/HTTP-shaped resourceSpans JSON)."
  in
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome); ("otlp", `Otlp) ]) `Jsonl
    & info [ "span-format" ] ~docv:"FORMAT" ~doc)

let serve_obs_t =
  let doc =
    "Serve live observability over HTTP on 127.0.0.1:$(docv) while the \
     run executes: $(b,/metrics) (Prometheus text, counters + quantile \
     summaries), $(b,/progress) (JSON phase / trial counts / sketch \
     snapshots / ETA) and $(b,/healthz).  Implies metric recording."
  in
  Arg.(
    value
    & opt (some (int_conv ~min:0 ~max:65535 ~what:"--serve-obs" ())) None
    & info [ "serve-obs" ] ~docv:"PORT" ~doc)

(* The export flags every simulating subcommand shares, parsed by one
   term. *)
type obs = {
  metrics : string option;
  trace : string option;
  trace_fmt : [ `Jsonl | `Chrome ];
  decisions : string option;
  spans : string option;
  span_fmt : [ `Jsonl | `Chrome | `Otlp ];
  serve : int option;
}

let obs_t =
  let make metrics trace trace_fmt decisions spans span_fmt serve =
    { metrics; trace; trace_fmt; decisions; spans; span_fmt; serve }
  in
  Term.(
    const make $ metrics_t $ trace_t $ trace_format_t $ decisions_t $ spans_t
    $ span_format_t $ serve_obs_t)

(* Atomic replace so a concurrent scrape of the file never reads a
   half-written exposition. *)
let write_metrics_file file =
  let text = Telemetry.render_metrics () in
  if file = "-" then print_string text
  else begin
    let tmp = file ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc text;
    close_out oc;
    Sys.rename tmp file
  end

let export ~what file write =
  Option.iter
    (fun file ->
      write file;
      Printf.printf "%s written to %s\n" what file)
    file

(* Record the kinds the flags ask for during the run, and write the
   export files after it.  --trace and --spans are two views of the
   events.  Metrics go out with the cache/pool gauges refreshed so one
   file carries the whole picture.  The HTTP server is torn down even
   when the run raises; a run that raises writes no file. *)
let with_obs ?(timeline = None) o f =
  if o.metrics <> None || o.serve <> None then Ri_obs.Metrics.set_enabled true;
  let asked file kind = if file <> None then [ kind ] else [] in
  Ri_obs.Span.start
    (asked (if o.trace <> None then o.trace else o.spans) Ri_obs.Span.Events
    @ asked o.decisions Ri_obs.Span.Decisions
    @ asked timeline Ri_obs.Span.Timeline);
  let server =
    Option.map
      (fun port ->
        let s = Ri_obs.Serve.start ~port ~metrics:Telemetry.render_metrics () in
        Printf.printf
          "obs endpoint: http://127.0.0.1:%d (/metrics /progress /traffic /healthz)\n%!"
          (Ri_obs.Serve.port s);
        s)
      o.serve
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Ri_obs.Span.stop ();
        Option.iter Ri_obs.Serve.stop server)
      f
  in
  export ~what:"trace" o.trace
    (match o.trace_fmt with
    | `Jsonl -> Ri_obs.Span.export_flat_jsonl
    | `Chrome -> Ri_obs.Span.export_flat_chrome);
  export ~what:"decisions" o.decisions Ri_obs.Decision.export_jsonl;
  export ~what:"spans" o.spans
    (match o.span_fmt with
    | `Jsonl -> Ri_obs.Span.export_jsonl
    | `Chrome -> Ri_obs.Span.export_chrome
    | `Otlp -> Ri_obs.Span.export_otlp);
  export ~what:"timeline" timeline Ri_obs.Observatory.export_jsonl;
  Option.iter
    (fun file ->
      write_metrics_file file;
      if file <> "-" then Printf.printf "metrics written to %s\n" file)
    o.metrics;
  result

(* Printed next to the cache/pool summary lines; empty unless the run
   recorded metrics. *)
let print_gc_table () =
  match Telemetry.gc_lines () with
  | [] -> ()
  | lines -> List.iter print_endline lines

(* ------------------------------------------------------------------ *)
(* Subcommands.                                                        *)

let list_cmd =
  let run () =
    Printf.printf "Paper figures:\n";
    List.iter
      (fun e ->
        Printf.printf "  %-13s %s\n" e.Ri_experiments.Registry.id
          e.Ri_experiments.Registry.title)
      Ri_experiments.Registry.all;
    Printf.printf "Extensions / ablations:\n";
    List.iter
      (fun e ->
        Printf.printf "  %-13s %s\n" e.Ri_experiments.Registry.id
          e.Ri_experiments.Registry.title)
      Ri_experiments.Registry.extensions
  in
  Cmd.v
    (Cmd.info "list" ~doc:"Enumerate the paper's experiments and the ablations")
    Term.(const run $ const ())

let params_cmd =
  let run nodes seed =
    let cfg = base_config nodes seed in
    match Config.validate cfg with
    | Error msg -> `Error (false, msg)
    | Ok () ->
        Format.printf "%a@." Config.pp cfg;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "params" ~doc:"Print the active simulation parameters (Figure 12)")
    Term.(ret (const run $ nodes_t $ seed_t))

let run_experiments ?csv_dir ids base trials rel_error =
  let spec = spec_of trials rel_error in
  Printf.printf "# NumNodes=%d QR=%d seed=%d trials<=%d rel-error<=%.0f%%\n\n"
    base.Config.num_nodes base.Config.query_results base.Config.seed trials
    (100. *. rel_error);
  let failures =
    List.filter_map
      (fun id ->
        match Ri_experiments.Registry.find id with
        | None -> Some (id, "unknown experiment (try `risim list')")
        | Some e -> (
            try
              Ri_obs.Serve.Progress.set_label id;
              let t0 = Unix.gettimeofday () in
              let report = e.Ri_experiments.Registry.run ~base ~spec in
              Ri_experiments.Report.print report;
              Printf.printf "(%.1fs)\n\n" (Unix.gettimeofday () -. t0);
              (match csv_dir with
              | None -> ()
              | Some dir ->
                  let path = Filename.concat dir (id ^ ".csv") in
                  let oc = open_out path in
                  output_string oc (Ri_experiments.Report.to_csv report);
                  close_out oc;
                  Printf.printf "wrote %s\n\n" path);
              None
            with
            (* Keep going — later experiments still run — but report
               the failure and make the whole invocation exit nonzero
               so CI cannot mistake a crashed sweep for a green one.
               The library refuses an input with [Invalid_argument]:
               here a configuration the figure derives from the base
               one, such as fig17's ten cycle links on a four-node tree,
               which [Trial.build]'s validation turns down. *)
            | Invalid_argument msg ->
                Printf.eprintf "experiment %s refused: %s\n%!" id msg;
                Some (id, msg)
            | exn ->
                let bt = Printexc.get_backtrace () in
                Printf.eprintf "experiment %s raised: %s\n%s%!" id
                  (Printexc.to_string exn) bt;
                Some (id, Printexc.to_string exn)))
      ids
  in
  (* Surface the run's execution telemetry: what the setup cache saved
     and how wide the trial pool actually ran. *)
  Printf.printf "%s\n%s\n" (Telemetry.cache_line ()) (Telemetry.pool_line ());
  print_gc_table ();
  match failures with
  | [] -> `Ok ()
  | failed ->
      `Error
        ( false,
          String.concat "; "
            (List.map (fun (id, msg) -> id ^ ": " ^ msg) failed) )

(* The body [run] and [all] share: a base configuration no run can use
   is refused before any export file is opened. *)
let run_ids ?csv_dir ids nodes seed trials rel_error jobs obs =
  let base = base_config nodes seed in
  match Config.validate base with
  | Error msg -> `Error (false, msg)
  | Ok () ->
      apply_jobs jobs;
      with_obs obs (fun () -> run_experiments ?csv_dir ids base trials rel_error)

let csv_dir_t =
  let doc = "Also write each experiment's table as $(docv)/<id>.csv." in
  Arg.(value & opt (some dir) None & info [ "csv" ] ~docv:"DIR" ~doc)

let run_cmd =
  let ids_t =
    let doc = "Experiment id(s), e.g. fig13 (see `risim list')." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run ids nodes seed trials rel_error csv_dir jobs obs =
    run_ids ?csv_dir ids nodes seed trials rel_error jobs obs
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Reproduce one or more of the paper's figures")
    Term.(
      ret
        (const run $ ids_t $ nodes_t $ seed_t $ trials_t $ rel_error_t
       $ csv_dir_t $ jobs_t $ obs_t))

let all_cmd =
  let with_extensions_t =
    Arg.(value & flag & info [ "extensions" ] ~doc:"Also run the ablations.")
  in
  let run nodes seed trials rel_error with_extensions jobs obs =
    let ids =
      Ri_experiments.Registry.ids
      @ if with_extensions then Ri_experiments.Registry.extension_ids else []
    in
    run_ids ids nodes seed trials rel_error jobs obs
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Reproduce every figure of the evaluation section")
    Term.(
      ret
        (const run $ nodes_t $ seed_t $ trials_t $ rel_error_t
       $ with_extensions_t $ jobs_t $ obs_t))

let print_query_metrics cfg ~nodes ~trial (m : Trial.query_metrics) =
  Printf.printf
    "search=%s topology=%s nodes=%d trial=%d\n\
     messages=%d (forwards=%d returns=%d results=%d)\n\
     found=%d satisfied=%b nodes_visited=%d bytes=%.0f\n"
    (Config.search_name cfg.Config.search)
    (Config.topology_name cfg.Config.topology)
    nodes trial m.Trial.messages m.Trial.forwards m.Trial.returns
    m.Trial.results m.Trial.found m.Trial.satisfied m.Trial.nodes_visited
    m.Trial.bytes

let query_cmd =
  let run nodes seed topology search trial loss crash delay drift partition
      heal_after fault_seed obs =
    let cfg = base_config nodes seed in
    let cfg = Config.with_topology cfg topology in
    let cfg = Config.with_search cfg (search_of cfg search) in
    let fault = fault_spec_of ~partition ?heal_after ~loss ~crash ~delay ~drift () in
    let cfg = { cfg with Config.fault; fault_seed } in
    match Config.validate cfg with
    | Error msg -> `Error (false, msg)
    | Ok () when not (Ri_p2p.Fault.active fault) ->
        let m = with_obs obs (fun () -> Trial.run_query cfg ~trial) in
        print_query_metrics cfg ~nodes ~trial m;
        print_gc_table ();
        `Ok ()
    | Ok () ->
        let m = with_obs obs (fun () -> Trial.run_query_faulty cfg ~trial) in
        print_query_metrics cfg ~nodes ~trial m.Trial.f_query;
        let st = m.Trial.f_stats in
        Printf.printf
          "recall=%.2f (clean_found=%d) drift_messages=%d repair_messages=%d\n\
           faults: crashes=%d drops=%d dead_drops=%d delays=%d timeouts=%d \
           retries=%d fallbacks=%d repairs=%d partition_drops=%d \
           recoveries=%d\n"
          m.Trial.f_recall m.Trial.f_clean_found m.Trial.f_drift_messages
          m.Trial.f_repair_messages st.Ri_p2p.Fault.crashes
          st.Ri_p2p.Fault.update_drops st.Ri_p2p.Fault.update_dead
          st.Ri_p2p.Fault.update_delays st.Ri_p2p.Fault.timeouts
          st.Ri_p2p.Fault.retries_used st.Ri_p2p.Fault.fallbacks
          st.Ri_p2p.Fault.repairs st.Ri_p2p.Fault.partition_drops
          st.Ri_p2p.Fault.recoveries;
        print_gc_table ();
        `Ok ()
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a single query trial and print its metrics")
    Term.(
      ret
        (const run $ nodes_t $ seed_t $ topology_t $ search_t $ trial_t
       $ fault_loss_t $ fault_crash_t $ fault_delay_t $ fault_drift_t
       $ fault_partition_t $ fault_heal_waves_t $ fault_seed_t $ obs_t))

let topology_cmd =
  let run nodes seed topology =
    let cfg = Config.with_topology (base_config nodes seed) topology in
    match Config.validate cfg with
    | Error msg -> `Error (false, msg)
    | Ok () ->
        let rng = Ri_util.Prng.create seed in
        let graph = Trial.topology_graph cfg rng in
        let open Ri_topology in
        Printf.printf
          "topology=%s nodes=%d edges=%d\n\
           connected=%b cyclomatic=%d mean_degree=%.2f max_degree=%d\n\
           avg_path_length=%.2f power_law_exponent_estimate=%.2f\n"
          (Config.topology_name cfg.Config.topology)
          (Graph.n graph) (Graph.edge_count graph) (Graph.is_connected graph)
          (Metrics.cyclomatic_number graph)
          (Metrics.mean_degree graph) (Metrics.max_degree graph)
          (Metrics.average_path_length ~samples:16 rng graph)
          (Metrics.estimated_power_law_exponent graph);
        Printf.printf "degree histogram (degree: nodes):";
        List.iter
          (fun (d, c) -> Printf.printf " %d:%d" d c)
          (Metrics.degree_histogram graph);
        print_newline ();
        `Ok ()
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Generate an overlay and print its shape statistics")
    Term.(ret (const run $ nodes_t $ seed_t $ topology_t))

let update_cmd =
  let run nodes seed topology search trial obs =
    let cfg = base_config nodes seed in
    let cfg = Config.with_topology cfg topology in
    let cfg = Config.with_search cfg (search_of cfg search) in
    match Config.validate cfg with
    | Error msg -> `Error (false, msg)
    | Ok () ->
        let m = with_obs obs (fun () -> Trial.run_update cfg ~trial) in
        Printf.printf
          "search=%s topology=%s nodes=%d trial=%d\n\
           update_messages=%d bytes=%.0f wire_bytes=%d\n"
          (Config.search_name cfg.Config.search)
          (Config.topology_name cfg.Config.topology)
          nodes trial m.Trial.update_messages m.Trial.update_bytes
          m.Trial.update_wire_bytes;
        print_gc_table ();
        `Ok ()
  in
  Cmd.v
    (Cmd.info "update" ~doc:"Run a single update trial and print its cost")
    Term.(
      ret
        (const run $ nodes_t $ seed_t $ topology_t $ search_t $ trial_t
       $ obs_t))

let traffic_cmd =
  let module T = Ri_experiments.Traffic in
  let d = T.default_opts in
  let qps_t =
    let doc =
      "Comma-separated offered arrival rates (queries/sec) to sweep, \
       each > 0.  The report marks the first rate whose drain overruns \
       the arrival window — the saturation knee."
    in
    Arg.(
      value
      & opt (list (float_conv ~min:1e-9 ~what:"--qps" ())) d.T.o_qps
      & info [ "qps" ] ~docv:"Q,Q,.." ~doc)
  in
  let duration_t =
    let doc = "Open-loop arrival window in seconds (> 0)." in
    Arg.(
      value
      & opt (float_conv ~min:1e-9 ~what:"--duration" ()) d.T.o_duration
      & info [ "duration" ] ~docv:"S" ~doc)
  in
  let service_rate_t =
    let doc = "Per-node service capacity in messages/sec (> 0)." in
    Arg.(
      value
      & opt (float_conv ~min:1e-9 ~what:"--service-rate" ()) d.T.o_service_rate
      & info [ "service-rate" ] ~docv:"R" ~doc)
  in
  let link_latency_t =
    let doc = "Per-hop propagation delay in milliseconds (>= 0)." in
    Arg.(
      value
      & opt (float_conv ~min:0. ~what:"--link-latency" ()) d.T.o_link_latency
      & info [ "link-latency" ] ~docv:"MS" ~doc)
  in
  let update_rate_t =
    let doc =
      "Interleave update waves at this Poisson rate (waves/sec, >= 0); \
       they ride the same mailboxes as the queries."
    in
    Arg.(
      value
      & opt (float_conv ~min:0. ~what:"--update-rate" ()) d.T.o_update_rate
      & info [ "update-rate" ] ~docv:"W" ~doc)
  in
  let zipf_t =
    let doc = "Topic-popularity skew exponent (0 = uniform)." in
    Arg.(
      value
      & opt (float_conv ~min:0. ~what:"--zipf" ()) d.T.o_zipf
      & info [ "zipf" ] ~docv:"S" ~doc)
  in
  let shift_every_t =
    let doc =
      "Rotate the Zipf hot set by one topic every $(docv) draws \
       (0 = popularity never shifts)."
    in
    Arg.(value & opt int d.T.o_shift_every & info [ "shift-every" ] ~docv:"N" ~doc)
  in
  let trials_t =
    let doc = "Trials per QPS point (independent networks, merged sketches)." in
    Arg.(value & opt int d.T.o_trials & info [ "trials" ] ~docv:"T" ~doc)
  in
  let json_t =
    let doc = "Also write the sweep's points and knee as JSON to $(docv)." in
    out_file_arg [ "json" ] ~doc
  in
  let hotspots_t =
    let doc =
      "Report the top $(docv) nodes per swept point by accumulated \
       queue-wait (with busy time, utilization, peak depth and \
       critical-hop counts); 0 hides the table."
    in
    Arg.(value & opt int d.T.o_hotspots & info [ "hotspots" ] ~docv:"K" ~doc)
  in
  let timeline_bins_t =
    let doc =
      "Number of logical-time bins in the $(b,--timeline) export (>= 1)."
    in
    Arg.(
      value
      & opt int d.T.o_timeline_bins
      & info [ "timeline-bins" ] ~docv:"N" ~doc)
  in
  let timeline_t =
    let doc =
      "Record the per-trial logical-time timeline — arrivals, \
       completions, aggregate mailbox backlog per bin — and write it to \
       $(docv) as JSONL.  Like $(b,--trace), timestamps are logical, so \
       the file is byte-identical at any $(b,--jobs) width."
    in
    out_file_arg [ "timeline" ] ~doc
  in
  let run nodes seed topology search qps duration service_rate link_latency
      update_rate zipf shift_every trials json hotspots timeline_bins
      timeline jobs obs =
    apply_jobs jobs;
    let cfg = base_config nodes seed in
    let cfg = Config.with_topology cfg topology in
    let cfg = Config.with_search cfg (search_of cfg search) in
    match Config.validate cfg with
    | Error msg -> `Error (false, msg)
    | Ok () when obs.decisions <> None ->
        (* The engine-driven walks get no decision sink: interleaved in
           one trial, their records would carry no query key to tell
           them apart. *)
        `Error
          ( false,
            "traffic: --decisions is not supported (engine-driven walks \
             record no routing decisions; use risim run, query or explain)" )
    | Ok () -> (
        let opts =
          {
            T.o_qps = qps;
            o_duration = duration;
            o_service_rate = service_rate;
            o_link_latency = link_latency;
            o_update_rate = update_rate;
            o_zipf = zipf;
            o_shift_every = shift_every;
            o_trials = trials;
            o_hotspots = hotspots;
            o_timeline_bins = timeline_bins;
          }
        in
        (* A refused sweep raises out of [with_obs] before it writes (or
           truncates) any export file. *)
        match with_obs ~timeline obs (fun () -> T.sweep ~opts cfg ()) with
        | exception (Invalid_argument msg | Sys_error msg) -> `Error (false, msg)
        | points ->
            Ri_experiments.Report.print (T.report_of points);
            if opts.T.o_hotspots > 0 then
              Ri_experiments.Report.print (T.hotspots_report_of points);
            (match T.knee_of points with
            | Some q -> Printf.printf "saturation knee: ~%g QPS offered\n" q
            | None ->
                Printf.printf
                  "saturation knee: not reached within the sweep\n");
            Printf.printf "%s\n%s\n" (Telemetry.cache_line ())
              (Telemetry.pool_line ());
            print_gc_table ();
            (match json with
            | None -> ()
            | Some file ->
                let oc = open_out file in
                Printf.fprintf oc "%s\n" (T.json_of ~opts points);
                close_out oc;
                Printf.printf "json written to %s\n" file);
            (* Zero completions at any offered rate means the engine
               never drained a query — a harness bug, not a slow
               network; fail CI's traffic-smoke step loudly. *)
            if List.exists (fun p -> p.T.q_completed = 0) points then
              `Error (false, "traffic sweep completed zero queries")
            else `Ok ())
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Open-loop traffic sweep on the discrete-event engine: Poisson \
          arrivals over Zipf topics, thousands of in-flight queries \
          through per-node mailboxes and link latency; reports \
          p50/p95/p99 latency, goodput, queue depths and the saturation \
          knee")
    Term.(
      ret
        (const run $ nodes_t $ seed_t $ topology_t $ search_t $ qps_t
       $ duration_t $ service_rate_t $ link_latency_t $ update_rate_t $ zipf_t
       $ shift_every_t $ trials_t $ json_t $ hotspots_t
       $ timeline_bins_t $ timeline_t $ jobs_t $ obs_t))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_or_print ~what out text =
  match out with
  | None -> print_string text
  | Some file ->
      let oc = open_out file in
      output_string oc text;
      close_out oc;
      Printf.printf "%s written to %s\n" what file

let explain_cmd =
  let out_t =
    let doc = "Write the explanation to $(docv) instead of stdout." in
    out_file_arg [ "o"; "out" ] ~doc
  in
  let jsonl_t =
    let doc = "Also export the raw decision records to $(docv) as JSONL." in
    out_file_arg [ "decisions" ] ~doc
  in
  let run nodes seed topology search trial loss crash delay drift out jsonl =
    let cfg = base_config nodes seed in
    let cfg = Config.with_topology cfg topology in
    let cfg = Config.with_search cfg (search_of cfg search) in
    let fault = fault_spec_of ~loss ~crash ~delay ~drift () in
    let cfg = { cfg with Config.fault } in
    match Config.validate cfg with
    | Error msg -> `Error (false, msg)
    | Ok () -> (
        match cfg.Config.search with
        | Config.Flooding _ ->
            `Error
              ( false,
                "flooding makes no per-neighbor routing decisions — nothing \
                 to explain (pick --search cri/hri/eri/no-ri)" )
        | Config.Ri _ | Config.No_ri ->
            (* Replay exactly the trial the figures would run, with the
               provenance recorder on for just this data point. *)
            Ri_obs.Span.clear ();
            Ri_obs.Span.start [ Ri_obs.Span.Decisions ];
            Ri_obs.Span.next_unit ();
            (if Ri_p2p.Fault.active fault then
               ignore (Trial.run_query_faulty cfg ~trial)
             else ignore (Trial.run_query cfg ~trial));
            Ri_obs.Span.stop ();
            let groups = Ri_obs.Decision.records () in
            write_or_print ~what:"explanation" out
              (Ri_experiments.Explain.render groups);
            (match jsonl with
            | None -> ()
            | Some file ->
                Ri_obs.Decision.export_jsonl file;
                Printf.printf "decisions written to %s\n" file);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Replay one query trial with provenance on and print an annotated \
          hop tree: per-decision candidate goodness vs oracle ground truth, \
          regret, staleness and update-wave lineage")
    Term.(
      ret
        (const run $ nodes_t $ seed_t $ topology_t $ search_t $ trial_t
       $ fault_loss_t $ fault_crash_t $ fault_delay_t $ fault_drift_t $ out_t
       $ jsonl_t))

let report_cmd =
  let decisions_file_t =
    in_file_arg [ "decisions" ]
      ~doc:"Decision JSONL from $(b,--decisions); adds routing-quality tables."
  in
  let metrics_file_t =
    in_file_arg [ "metrics-file" ]
      ~doc:"Prometheus dump from $(b,--metrics); adds the metric table."
  in
  let traffic_file_t =
    let doc =
      "Sweep JSON from $(b,risim traffic --json); adds the knee chart, \
       the latency-decomposition stacked bars and the hotspot table.  \
       Parsed strictly: malformed rows fail the report with the \
       offending point named."
    in
    in_file_arg [ "traffic" ] ~doc
  in
  let timeline_file_t =
    let doc =
      "Timeline JSONL from $(b,risim traffic --timeline); adds the \
       logical-time bin table (arrivals, completions, backlog depth)."
    in
    in_file_arg [ "timeline" ] ~doc
  in
  let out_t =
    let doc = "Write the report to $(docv) instead of stdout." in
    out_file_arg [ "o"; "out" ] ~doc
  in
  let html_t =
    Arg.(
      value & flag
      & info [ "html" ] ~doc:"Render a self-contained HTML page instead of Markdown.")
  in
  let run decisions metrics_file traffic timeline out html =
    let module D = Ri_experiments.Dashboard in
    let tables = ref [] in
    let errors = ref [] in
    let add ts = tables := !tables @ ts in
    let refuse path msg = errors := Printf.sprintf "%s: %s" path msg :: !errors in
    Option.iter
      (fun path ->
        match D.of_decisions (read_file path) with
        | Some t -> add [ t ]
        | None -> refuse path "no decision records")
      decisions;
    Option.iter
      (fun path ->
        match D.of_metrics (read_file path) with
        | Some t -> add [ t ]
        | None -> refuse path "no metrics")
      metrics_file;
    Option.iter
      (fun path ->
        match Result.bind (Ri_util.Json.parse (read_file path)) D.of_traffic with
        | Ok ts -> add ts
        | Error e -> refuse path e)
      traffic;
    Option.iter
      (fun path ->
        match D.of_timeline (read_file path) with
        | Ok t -> add [ t ]
        | Error e -> refuse path e)
      timeline;
    (* A refused input refuses the whole report: nothing is printed and
       an existing [-o] file keeps its bytes. *)
    match List.rev !errors with
    | _ :: _ as es -> `Error (false, String.concat "; " es)
    | [] ->
        let title = "risim observability report" in
        let text =
          if html then D.render_html ~title !tables
          else D.render_markdown ~title !tables
        in
        write_or_print ~what:"report" out text;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate run artifacts (decision provenance, metrics, traffic \
          sweeps and timelines) into a Markdown or HTML dashboard")
    Term.(
      ret
        (const run $ decisions_file_t $ metrics_file_t $ traffic_file_t
       $ timeline_file_t $ out_t $ html_t))

let chaos_cmd =
  let nodes_t =
    let doc = "Network size per schedule (kept small: every schedule builds \
               two networks — the chaotic one and its fault-free twin)." in
    Arg.(value & opt int 200 & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  in
  let schedules_t =
    let doc = "Number of seeded fault schedules to replay." in
    Arg.(value & opt int 50 & info [ "schedules" ] ~docv:"S" ~doc)
  in
  let steps_t =
    let doc = "Fault-injection steps per schedule." in
    Arg.(value & opt int 8 & info [ "steps" ] ~docv:"K" ~doc)
  in
  let schedule_t =
    let doc =
      "Replay a single schedule id (from a reported violation) instead of \
       the whole range."
    in
    Arg.(value & opt (some int) None & info [ "schedule" ] ~docv:"ID" ~doc)
  in
  let json_t =
    let doc = "Write the outcome (violations with replay coordinates) to \
               $(docv) as JSON." in
    out_file_arg [ "json" ] ~doc
  in
  let sabotage_t =
    let doc =
      "Self-test: deliberately corrupt one reconciled row after the \
       repairs finish, proving the fixpoint invariant catches a broken \
       reconciler (the run then $(i,must) report violations)."
    in
    Arg.(value & flag & info [ "sabotage" ] ~doc)
  in
  let run nodes seed schedules steps schedule json sabotage =
    let module C = Ri_experiments.Chaos in
    match
      try
        Ok (C.run ~sabotage ?only:schedule ~nodes ~schedules ~steps ~seed ())
      with Invalid_argument msg -> Error msg
    with
    | Error msg -> `Error (false, msg)
    | Ok o ->
        (match json with
        | Some path ->
            let oc = open_out path in
            output_string oc (C.to_json o);
            output_char oc '\n';
            close_out oc
        | None -> ());
        Printf.printf "chaos: %d schedules, %d steps, %d queries, %d violations\n"
          o.C.c_schedules o.C.c_steps o.C.c_queries
          (List.length o.C.c_violations);
        List.iter
          (fun v ->
            Printf.printf
              "VIOLATION invariant=%s seed=%d schedule=%d step=%d: %s\n"
              v.C.v_invariant v.C.v_seed v.C.v_schedule v.C.v_step v.C.v_detail)
          o.C.c_violations;
        if o.C.c_violations = [] then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf
                "%d invariant violation(s); replay one with --schedule ID \
                 --seed %d"
                (List.length o.C.c_violations) seed )
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay deterministic fault schedules (crashes, recoveries, \
          partitions, content moves) against small tree networks and check \
          the recovery plane's invariants: exact reconvergence to the \
          fault-free fixpoint, no routing across an active cut, no \
          resurrection of dead nodes' rows, no post-recovery recall loss.  \
          Violations are replayable from their (seed, schedule) pair")
    Term.(
      ret
        (const run $ nodes_t $ seed_t $ schedules_t $ steps_t $ schedule_t
       $ json_t $ sabotage_t))

let json_verify_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some in_file_conv) None
      & info [] ~docv:"FILE" ~doc:"JSON file to validate.")
  in
  let jsonl_t =
    let doc =
      "Treat the file as JSONL: validate each non-empty line as a \
       standalone strict-JSON document (timeline, trace and decision \
       exports), reporting the first offending line."
    in
    Arg.(value & flag & info [ "jsonl" ] ~doc)
  in
  let run file jsonl =
    if jsonl then begin
      let bad = ref None in
      let count = ref 0 in
      String.split_on_char '\n' (read_file file)
      |> List.iteri (fun i line ->
             if !bad = None && String.trim line <> "" then begin
               incr count;
               match Ri_util.Json.parse line with
               | Ok _ -> ()
               | Error e ->
                   bad := Some (Printf.sprintf "%s: line %d: %s" file (i + 1) e)
             end);
      match !bad with
      | Some e -> `Error (false, e)
      | None ->
          Printf.printf "%s: %d valid JSONL records\n" file !count;
          `Ok ()
    end
    else
      match Ri_util.Json.parse (read_file file) with
      | Ok _ ->
          Printf.printf "%s: valid JSON\n" file;
          `Ok ()
      | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
  in
  Cmd.v
    (Cmd.info "json-verify"
       ~doc:
         "Validate a file against the simulator's strict RFC 8259 JSON \
          parser — what CI runs over the /progress endpoint's output and \
          exported artifacts; $(b,--jsonl) validates line-delimited \
          exports record by record")
    Term.(ret (const run $ file_t $ jsonl_t))

let () =
  Printexc.record_backtrace true;
  let doc = "Routing Indices for Peer-to-Peer Systems - simulator" in
  let info = Cmd.info "risim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            params_cmd;
            run_cmd;
            all_cmd;
            query_cmd;
            update_cmd;
            topology_cmd;
            traffic_cmd;
            explain_cmd;
            report_cmd;
            chaos_cmd;
            json_verify_cmd;
          ]))
