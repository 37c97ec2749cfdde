(* risim — command-line front end for the Routing Indices simulator.

   Subcommands:
     list               enumerate the paper's experiments
     params             print the active (Figure 12) configuration
     run EXPERIMENT..   reproduce one or more figures
     all                reproduce every figure
     query              run a single query trial and print its metrics
     update             run a single update trial and print its cost
     scale              sweep network sizes, report throughput + memory
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

let trials_t =
  let doc = "Maximum trials per data point (the 95%/10% CI rule may stop earlier)." in
  Arg.(value & opt int 30 & info [ "trials" ] ~docv:"T" ~doc)

let rel_error_t =
  let doc = "Target relative error of the 95% confidence interval." in
  Arg.(value & opt float 0.1 & info [ "rel-error" ] ~docv:"E" ~doc)

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

(* ------------------------------------------------------------------ *)
(* Fault environment (query subcommand).                               *)

(* Fault rates are validated at parse time — [--fault-loss 1.5] is
   refused with a message and a nonzero exit before any simulation
   starts, instead of surfacing later as a config-validation failure
   halfway into a batch.  The range check is [Ri_util.Env.check_float],
   the same policy the environment knobs apply. *)
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
    "Domains used to run trials in parallel (0 = the RI_JOBS environment \
     variable, or all cores minus one).  Results are bit-identical at \
     any width; use $(b,--jobs)=1 to force the sequential path."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"J" ~doc)

let apply_jobs jobs = if jobs > 0 then Ri_util.Pool.set_global_jobs jobs

(* ------------------------------------------------------------------ *)
(* Observability options (shared by run/all/query/update).             *)

let metrics_t =
  let doc =
    "Write metrics (message counters, per-phase timings, setup-cache hit \
     rates, pool utilization) to $(docv) in Prometheus text format; bare \
     $(b,--metrics) (or $(docv)=$(b,-)) prints them to stdout.  Implies \
     metric recording for this run (as does $(b,RI_OBS)=1)."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
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
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

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
  Arg.(value & opt (some string) None & info [ "decisions" ] ~docv:"FILE" ~doc)

let spans_t =
  let doc =
    "Record causal spans — a root span per query or update wave \
     parenting per-hop, retry, fallback and per-round children — and \
     write them to $(docv).  This is the causal view of the event log \
     whose flat view $(b,--trace) writes.  Span ids and timestamps are \
     deterministic logical ticks, so the output is byte-identical at any \
     $(b,--jobs) width."
  in
  Arg.(value & opt (some string) None & info [ "spans" ] ~docv:"FILE" ~doc)

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
  Arg.(value & opt (some int) None & info [ "serve-obs" ] ~docv:"PORT" ~doc)

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

(* RI_OBS_FLUSH_SEC=N flushes the --metrics file every N seconds from a
   helper domain, so a long sweep's metrics are scrapeable mid-run even
   without --serve-obs.  Sleeping in short steps keeps shutdown prompt. *)
let start_flusher metrics =
  let period = Ri_util.Env.float ~min:0.01 "RI_OBS_FLUSH_SEC" 0. in
  match metrics with
  | Some file when file <> "-" && period > 0. ->
      let stop = Atomic.make false in
      let dom =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let slept = ref 0. in
              while (not (Atomic.get stop)) && !slept < period do
                Unix.sleepf 0.05;
                slept := !slept +. 0.05
              done;
              if not (Atomic.get stop) then
                try write_metrics_file file with Sys_error _ -> ()
            done)
      in
      Some (stop, dom)
  | _ -> None

let stop_flusher = function
  | None -> ()
  | Some (stop, dom) ->
      Atomic.set stop true;
      Domain.join dom

(* Enable recording before the run, export files after.  --trace and
   --spans are two views of one event log, started if either is asked
   for.  Metrics go out with the cache/pool gauges refreshed so one file
   carries the whole picture.  The HTTP server and the periodic flusher
   are torn down even when the run raises. *)
let with_obs ?(serve = None) ?(spans = None) ?(span_fmt = `Jsonl)
    ?(timeline = None) metrics trace fmt decisions f =
  let events = trace <> None || spans <> None in
  if metrics <> None || serve <> None then Ri_obs.Metrics.set_enabled true;
  if events then Ri_obs.Span.start ();
  if decisions <> None then Ri_obs.Decision.start ();
  if timeline <> None then Ri_obs.Observatory.start ();
  let server =
    Option.map
      (fun port ->
        let s = Ri_obs.Serve.start ~port ~metrics:Telemetry.render_metrics () in
        Printf.printf
          "obs endpoint: http://127.0.0.1:%d (/metrics /progress /traffic /healthz)\n%!"
          (Ri_obs.Serve.port s);
        s)
      serve
  in
  let flusher = start_flusher metrics in
  let result =
    Fun.protect
      ~finally:(fun () ->
        stop_flusher flusher;
        Option.iter Ri_obs.Serve.stop server)
      f
  in
  if events then Ri_obs.Span.stop ();
  (match trace with
  | None -> ()
  | Some file ->
      (match fmt with
      | `Jsonl -> Ri_obs.Span.export_flat_jsonl file
      | `Chrome -> Ri_obs.Span.export_flat_chrome file);
      Printf.printf "trace written to %s\n" file);
  (match decisions with
  | None -> ()
  | Some file ->
      Ri_obs.Decision.stop ();
      Ri_obs.Decision.export_jsonl file;
      Printf.printf "decisions written to %s\n" file);
  (match spans with
  | None -> ()
  | Some file ->
      (match span_fmt with
      | `Jsonl -> Ri_obs.Span.export_jsonl file
      | `Chrome -> Ri_obs.Span.export_chrome file
      | `Otlp -> Ri_obs.Span.export_otlp file);
      Printf.printf "spans written to %s\n" file);
  (match timeline with
  | None -> ()
  | Some file ->
      Ri_obs.Observatory.stop ();
      Ri_obs.Observatory.export_jsonl file;
      Printf.printf "timeline written to %s\n" file);
  (match metrics with
  | None -> ()
  | Some file ->
      write_metrics_file file;
      if file <> "-" then Printf.printf "metrics written to %s\n" file);
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
      Ri_experiments.Registry.extensions;
    Printf.printf "Simulator scale (run via `risim scale'):\n";
    List.iter
      (fun e ->
        Printf.printf "  %-13s %s\n" e.Ri_experiments.Registry.id
          e.Ri_experiments.Registry.title)
      Ri_experiments.Registry.scale
  in
  Cmd.v
    (Cmd.info "list" ~doc:"Enumerate the paper's experiments and the ablations")
    Term.(const run $ const ())

let params_cmd =
  let run nodes seed =
    Format.printf "%a@." Config.pp (base_config nodes seed)
  in
  Cmd.v
    (Cmd.info "params" ~doc:"Print the active simulation parameters (Figure 12)")
    Term.(const run $ nodes_t $ seed_t)

let run_experiments ?csv_dir ids nodes seed trials rel_error =
  let base = base_config nodes seed in
  let spec = spec_of trials rel_error in
  Printf.printf "# NumNodes=%d QR=%d seed=%d trials<=%d rel-error<=%.0f%%\n\n"
    base.Config.num_nodes base.Config.query_results seed trials
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
            with exn ->
              (* Keep going — later experiments still run — but report
                 the failure and make the whole invocation exit nonzero
                 so CI cannot mistake a crashed sweep for a green one. *)
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

let csv_dir_t =
  let doc = "Also write each experiment's table as $(docv)/<id>.csv." in
  Arg.(value & opt (some dir) None & info [ "csv" ] ~docv:"DIR" ~doc)

let run_cmd =
  let ids_t =
    let doc = "Experiment id(s), e.g. fig13 (see `risim list')." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run ids nodes seed trials rel_error csv_dir jobs metrics trace fmt
      decisions spans span_fmt serve =
    apply_jobs jobs;
    with_obs ~serve ~spans ~span_fmt metrics trace fmt decisions (fun () ->
        run_experiments ?csv_dir ids nodes seed trials rel_error)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Reproduce one or more of the paper's figures")
    Term.(
      ret
        (const run $ ids_t $ nodes_t $ seed_t $ trials_t $ rel_error_t
       $ csv_dir_t $ jobs_t $ metrics_t $ trace_t $ trace_format_t
       $ decisions_t $ spans_t $ span_format_t $ serve_obs_t))

let all_cmd =
  let with_extensions_t =
    Arg.(value & flag & info [ "extensions" ] ~doc:"Also run the ablations.")
  in
  let run nodes seed trials rel_error with_extensions jobs metrics trace fmt
      decisions spans span_fmt serve =
    apply_jobs jobs;
    let ids =
      Ri_experiments.Registry.ids
      @ if with_extensions then Ri_experiments.Registry.extension_ids else []
    in
    with_obs ~serve ~spans ~span_fmt metrics trace fmt decisions (fun () ->
        run_experiments ids nodes seed trials rel_error)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Reproduce every figure of the evaluation section")
    Term.(
      ret
        (const run $ nodes_t $ seed_t $ trials_t $ rel_error_t
       $ with_extensions_t $ jobs_t $ metrics_t $ trace_t $ trace_format_t
       $ decisions_t $ spans_t $ span_format_t $ serve_obs_t))

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
      heal_after fault_seed metrics trace fmt decisions spans span_fmt serve =
    let cfg = base_config nodes seed in
    let cfg = Config.with_topology cfg topology in
    let cfg = Config.with_search cfg (search_of cfg search) in
    let fault = fault_spec_of ~partition ?heal_after ~loss ~crash ~delay ~drift () in
    let cfg = { cfg with Config.fault; fault_seed } in
    match Config.validate cfg with
    | Error msg -> `Error (false, msg)
    | Ok () when not (Ri_p2p.Fault.active fault) ->
        let m =
          with_obs ~serve ~spans ~span_fmt metrics trace fmt decisions
            (fun () -> Trial.run_query cfg ~trial)
        in
        print_query_metrics cfg ~nodes ~trial m;
        print_gc_table ();
        `Ok ()
    | Ok () ->
        let m =
          with_obs ~serve ~spans ~span_fmt metrics trace fmt decisions
            (fun () -> Trial.run_query_faulty cfg ~trial)
        in
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
  let trial_t =
    Arg.(value & opt int 0 & info [ "trial" ] ~docv:"I" ~doc:"Trial index.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a single query trial and print its metrics")
    Term.(
      ret
        (const run $ nodes_t $ seed_t $ topology_t $ search_t $ trial_t
       $ fault_loss_t $ fault_crash_t $ fault_delay_t $ fault_drift_t
       $ fault_partition_t $ fault_heal_waves_t $ fault_seed_t
       $ metrics_t $ trace_t $ trace_format_t $ decisions_t $ spans_t
       $ span_format_t $ serve_obs_t))

let topology_cmd =
  let run nodes seed topology =
    let cfg = Config.with_topology (base_config nodes seed) topology in
    let rng = Ri_util.Prng.create seed in
    let graph =
      match cfg.Config.topology with
      | Config.Tree ->
          Ri_topology.Tree_gen.random_labels rng ~n:nodes ~fanout:cfg.Config.fanout
      | Config.Tree_with_cycles { extra_links } ->
          Ri_topology.Cycle_gen.tree_with_cycles rng ~n:nodes
            ~fanout:cfg.Config.fanout ~extra_links
      | Config.Power_law_graph ->
          Ri_topology.Power_law.generate rng ~n:nodes
            ~exponent:cfg.Config.outdegree_exponent ()
    in
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
    print_newline ()
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Generate an overlay and print its shape statistics")
    Term.(const run $ nodes_t $ seed_t $ topology_t)

let update_cmd =
  let run nodes seed topology search trial metrics trace fmt decisions spans
      span_fmt serve =
    let cfg = base_config nodes seed in
    let cfg = Config.with_topology cfg topology in
    let cfg = Config.with_search cfg (search_of cfg search) in
    match Config.validate cfg with
    | Error msg -> `Error (false, msg)
    | Ok () ->
        let m =
          with_obs ~serve ~spans ~span_fmt metrics trace fmt decisions
            (fun () -> Trial.run_update cfg ~trial)
        in
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
  let trial_t =
    Arg.(value & opt int 0 & info [ "trial" ] ~docv:"I" ~doc:"Trial index.")
  in
  Cmd.v
    (Cmd.info "update" ~doc:"Run a single update trial and print its cost")
    Term.(
      ret
        (const run $ nodes_t $ seed_t $ topology_t $ search_t $ trial_t
       $ metrics_t $ trace_t $ trace_format_t $ decisions_t $ spans_t
       $ span_format_t $ serve_obs_t))

let scale_cmd =
  let sizes_t =
    let doc =
      "Comma-separated network sizes to sweep.  Defaults to \
       2000,10000,50000,100000 capped at $(b,--nodes); pass explicit \
       sizes to override the cap."
    in
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "sizes" ] ~docv:"N,N,.." ~doc)
  in
  let json_t =
    let doc = "Also write the sweep's points as a JSON array to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let big_t =
    let doc =
      "Sweep the million-node plane (100000, 250000, 500000, 1000000 \
       nodes) instead of the default sizes.  A $(b,--nodes) that \
       reaches into the plane trims the sweep to the sizes it covers."
    in
    Arg.(value & flag & info [ "big" ] ~doc)
  in
  let compress_t =
    let doc =
      "Also measure the quantized (bit-packed) rowstore at $(docv) bits \
       per cell and report the accuracy/size tradeoff against the exact \
       store."
    in
    Arg.(
      value
      & opt ~vopt:(Some 8) (some int) None
      & info [ "compress" ] ~docv:"BITS" ~doc)
  in
  let snapshot_t =
    let doc =
      "Time a snapshot save/load round trip per size; files land in \
       $(docv) as scale_<nodes>.risnap."
    in
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"DIR" ~doc)
  in
  let par_compare_t =
    let doc =
      "Additionally time a cache-cold converged build on the process \
       pool and on one core (the intra-trial parallelism speedup)."
    in
    Arg.(value & flag & info [ "par-compare" ] ~doc)
  in
  let run nodes seed trials rel_error sizes json big compress snapshot
      par_compare jobs metrics trace fmt decisions spans span_fmt serve =
    apply_jobs jobs;
    let base = base_config nodes seed in
    let spec = spec_of trials rel_error in
    let sizes =
      match (sizes, big) with
      | Some _, _ -> sizes
      | None, true -> (
          (* A --nodes below the plane's smallest size is the shared
             default, not a cap on a sweep it cannot reach. *)
          match
            List.filter (fun s -> s <= nodes) Ri_experiments.Fig_scale.big_sizes
          with
          | [] -> Some Ri_experiments.Fig_scale.big_sizes
          | s -> Some s)
      | None, false -> None
    in
    let opts =
      {
        Ri_experiments.Fig_scale.o_compress = compress;
        o_snapshot = snapshot;
        o_par_compare = par_compare;
      }
    in
    let swept =
      with_obs ~serve ~spans ~span_fmt metrics trace fmt decisions (fun () ->
          try Ok (Ri_experiments.Fig_scale.sweep ?sizes ~opts ~base ~spec ())
          with Invalid_argument msg -> Error msg)
    in
    match swept with
    | Error msg -> `Error (false, msg)
    | Ok points ->
        Ri_experiments.Report.print
          (Ri_experiments.Fig_scale.report_of points);
        if compress <> None then
          Ri_experiments.Report.print
            (Ri_experiments.Fig_scale.compress_report_of points);
        Printf.printf "%s\n%s\n" (Telemetry.cache_line ())
          (Telemetry.pool_line ());
        print_gc_table ();
        (match json with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            Printf.fprintf oc "%s\n"
              (Ri_experiments.Fig_scale.json_of points);
            close_out oc;
            Printf.printf "json written to %s\n" file);
        (* A sweep that measures zero throughput means the harness broke
           (division guarded to 0., not the network being slow) — make
           CI's scale-smoke step fail loudly. *)
        if
          List.exists
            (fun p -> p.Ri_experiments.Fig_scale.p_queries_per_s <= 0.)
            points
        then `Error (false, "scale sweep measured zero queries/sec")
        else `Ok ()
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Sweep network sizes and report build times, queries/sec, \
          update-waves/sec, wire bytes, RI bytes per node, heap and RSS; \
          optionally compressed-store, snapshot and parallel-speedup \
          measurements")
    Term.(
      ret
        (const run $ nodes_t $ seed_t $ trials_t $ rel_error_t $ sizes_t
       $ json_t $ big_t $ compress_t $ snapshot_t $ par_compare_t $ jobs_t
       $ metrics_t $ trace_t $ trace_format_t $ decisions_t $ spans_t
       $ span_format_t $ serve_obs_t))

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
  let snapshot_t =
    let doc =
      "Load the converged network from this $(b,.risnap) file (saved by \
       $(b,risim scale --snapshot) at trial 0) instead of building it; \
       requires $(b,--trials) 1 and a matching configuration."
    in
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let json_t =
    let doc = "Also write the sweep's points and knee as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
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
    Arg.(value & opt (some string) None & info [ "timeline" ] ~docv:"FILE" ~doc)
  in
  let run nodes seed topology search qps duration service_rate link_latency
      update_rate zipf shift_every trials snapshot json hotspots timeline_bins
      timeline jobs metrics trace fmt decisions spans span_fmt serve =
    apply_jobs jobs;
    let cfg = base_config nodes seed in
    let cfg = Config.with_topology cfg topology in
    let cfg = Config.with_search cfg (search_of cfg search) in
    match Config.validate cfg with
    | Error msg -> `Error (false, msg)
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
            o_snapshot = snapshot;
            o_hotspots = hotspots;
            o_timeline_bins = timeline_bins;
          }
        in
        let swept =
          with_obs ~serve ~spans ~span_fmt ~timeline metrics trace fmt
            decisions (fun () ->
              try Ok (T.sweep ~opts cfg ())
              with Invalid_argument msg | Sys_error msg -> Error msg)
        in
        match swept with
        | Error msg -> `Error (false, msg)
        | Ok points ->
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
       $ shift_every_t $ trials_t $ snapshot_t $ json_t $ hotspots_t
       $ timeline_bins_t $ timeline_t $ jobs_t $ metrics_t $ trace_t
       $ trace_format_t $ decisions_t $ spans_t $ span_format_t $ serve_obs_t))

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
  let trial_t =
    Arg.(value & opt int 0 & info [ "trial" ] ~docv:"I" ~doc:"Trial index.")
  in
  let out_t =
    let doc = "Write the explanation to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let jsonl_t =
    let doc = "Also export the raw decision records to $(docv) as JSONL." in
    Arg.(value & opt (some string) None & info [ "decisions" ] ~docv:"FILE" ~doc)
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
            Ri_obs.Decision.clear ();
            Ri_obs.Decision.start ();
            Ri_obs.Decision.next_unit ();
            (if Ri_p2p.Fault.active fault then
               ignore (Trial.run_query_faulty cfg ~trial)
             else ignore (Trial.run_query cfg ~trial));
            Ri_obs.Decision.stop ();
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
    let doc = "Decision JSONL from $(b,--decisions); adds routing-quality tables." in
    Arg.(value & opt (some string) None & info [ "decisions" ] ~docv:"FILE" ~doc)
  in
  let metrics_file_t =
    let doc = "Prometheus dump from $(b,--metrics); adds the metric table." in
    Arg.(
      value & opt (some string) None & info [ "metrics-file" ] ~docv:"FILE" ~doc)
  in
  let traffic_file_t =
    let doc =
      "Sweep JSON from $(b,risim traffic --json); adds the knee chart, \
       the latency-decomposition stacked bars and the hotspot table.  \
       Parsed strictly: malformed rows fail the report with the \
       offending point named."
    in
    Arg.(value & opt (some string) None & info [ "traffic" ] ~docv:"FILE" ~doc)
  in
  let timeline_file_t =
    let doc =
      "Timeline JSONL from $(b,risim traffic --timeline); adds the \
       logical-time bin table (arrivals, completions, backlog depth)."
    in
    Arg.(value & opt (some string) None & info [ "timeline" ] ~docv:"FILE" ~doc)
  in
  let out_t =
    let doc = "Write the report to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
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
    let with_input label path f =
      if not (Sys.file_exists path) then
        errors := Printf.sprintf "%s: %s does not exist" label path :: !errors
      else f (read_file path)
    in
    (match decisions with
    | None -> ()
    | Some path ->
        with_input "--decisions" path (fun text ->
            match D.of_decisions text with
            | Some t -> add [ t ]
            | None ->
                errors :=
                  Printf.sprintf "%s: no decision records" path :: !errors));
    (match metrics_file with
    | None -> ()
    | Some path ->
        with_input "--metrics-file" path (fun text ->
            match D.of_metrics text with
            | Some t -> add [ t ]
            | None ->
                errors := Printf.sprintf "%s: no metrics" path :: !errors));
    (match traffic with
    | None -> ()
    | Some path ->
        with_input "--traffic" path (fun text ->
            match Ri_util.Json.parse text with
            | Error e -> errors := Printf.sprintf "%s: %s" path e :: !errors
            | Ok j -> (
                match D.of_traffic j with
                | Ok ts -> add ts
                | Error e ->
                    errors := Printf.sprintf "%s: %s" path e :: !errors)));
    (match timeline with
    | None -> ()
    | Some path ->
        with_input "--timeline" path (fun text ->
            match D.of_timeline text with
            | Ok t -> add [ t ]
            | Error e ->
                errors := Printf.sprintf "%s: %s" path e :: !errors));
    let title = "risim observability report" in
    let text =
      if html then D.render_html ~title !tables
      else D.render_markdown ~title !tables
    in
    write_or_print ~what:"report" out text;
    match List.rev !errors with
    | [] -> `Ok ()
    | es -> `Error (false, String.concat "; " es)
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
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
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
      & pos 0 (some string) None
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
    if not (Sys.file_exists file) then
      `Error (false, file ^ ": no such file")
    else if jsonl then begin
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
            scale_cmd;
            traffic_cmd;
            explain_cmd;
            report_cmd;
            chaos_cmd;
            json_verify_cmd;
          ]))
