(* Observability layer: counter/gauge math, disabled-mode no-op
   behavior, telemetry surfacing, and the tentpole guarantee — trace
   output is byte-identical whatever the pool width. *)

open Ri_util
open Ri_obs
open Ri_sim

let with_metrics f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled was;
      Metrics.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)

let test_counter_math () =
  with_metrics (fun () ->
      let c = Metrics.counter ~help:"Test counter." "ri_test_counter_total" in
      Metrics.incr c;
      Metrics.add c 41;
      Alcotest.(check int) "value" 42 (Metrics.counter_value c);
      let text = Metrics.render () in
      Alcotest.(check bool) "rendered" true
        (Astring.String.is_infix ~affix:"ri_test_counter_total 42" text);
      Alcotest.(check bool) "typed" true
        (Astring.String.is_infix ~affix:"# TYPE ri_test_counter_total counter"
           text))

let test_gauge_math () =
  with_metrics (fun () ->
      let g = Metrics.gauge ~labels:[ ("k", "v") ] "ri_test_gauge" in
      Metrics.set g 2.5;
      Alcotest.(check (float 0.)) "value" 2.5 (Metrics.gauge_value g);
      Alcotest.(check bool) "rendered with labels" true
        (Astring.String.is_infix ~affix:"ri_test_gauge{k=\"v\"} 2.5"
           (Metrics.render ())))

let test_disabled_noop () =
  let c = Metrics.counter "ri_test_disabled_total" in
  let s = Metrics.summary "ri_test_disabled_summary" in
  Metrics.set_enabled false;
  Metrics.incr c;
  Metrics.observe s 0.5;
  let ran = ref false in
  let v =
    Phase.time "test-disabled-phase" (fun () ->
        ran := true;
        17)
  in
  Alcotest.(check int) "phase passes value through" 17 v;
  Alcotest.(check bool) "phase body ran" true !ran;
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check int) "summary untouched" 0
    (Sketch.count (Metrics.snapshot s))

let test_registration_idempotent () =
  let a = Metrics.counter "ri_test_idem_total" in
  let b = Metrics.counter "ri_test_idem_total" in
  with_metrics (fun () ->
      Metrics.incr a;
      Metrics.incr b;
      Alcotest.(check int) "one underlying counter" 2 (Metrics.counter_value a));
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: ri_test_idem_total already registered as a counter")
    (fun () -> ignore (Metrics.gauge "ri_test_idem_total"))

(* ------------------------------------------------------------------ *)
(* Deterministic tracing.                                              *)

let small = Config.scaled Config.base ~num_nodes:300

let trace_run jobs =
  Span.clear ();
  Span.start [ Span.Events ];
  Fun.protect ~finally:Span.stop (fun () ->
      let spec =
        { Runner.min_trials = 3; max_trials = 6; target_rel_error = 0.05 }
      in
      Pool.with_pool ~jobs (fun pool ->
          let cfg = Config.with_search small (Config.Ri (Config.eri small)) in
          ignore
            (Runner.run ~pool spec (fun ~trial ->
                 float_of_int (Trial.run_query cfg ~trial).Trial.messages));
          ignore
            (Runner.run ~pool spec (fun ~trial ->
                 float_of_int
                   (Trial.run_update cfg ~trial).Trial.update_messages))));
  let jsonl = Span.render_flat_jsonl () in
  let chrome = Span.render_flat_chrome () in
  Span.clear ();
  (jsonl, chrome)

let test_trace_bit_identical () =
  let jsonl1, chrome1 = trace_run 1 in
  let jsonl4, chrome4 = trace_run 4 in
  Alcotest.(check bool) "trace not empty" true (String.length jsonl1 > 0);
  Alcotest.(check bool) "query hops recorded" true
    (Astring.String.is_infix ~affix:"\"name\":\"forward\"" jsonl1);
  Alcotest.(check bool) "stop conditions recorded" true
    (Astring.String.is_infix ~affix:"\"name\":\"stop\"" jsonl1);
  Alcotest.(check bool) "update hops recorded" true
    (Astring.String.is_infix ~affix:"\"name\":\"update_hop\"" jsonl1);
  Alcotest.(check string) "jsonl byte-identical at jobs 1 vs 4" jsonl1 jsonl4;
  Alcotest.(check string) "chrome byte-identical at jobs 1 vs 4" chrome1 chrome4

(* The same guarantee with the fault plane switched on: the fault plan
   draws from its own (seed, trial)-derived generator, so drops,
   timeouts and repairs land identically whatever the pool width. *)
let faulty_trace_run jobs =
  Span.clear ();
  Span.start [ Span.Events ];
  Fun.protect ~finally:Span.stop (fun () ->
      let spec =
        { Runner.min_trials = 3; max_trials = 6; target_rel_error = 0.05 }
      in
      Pool.with_pool ~jobs (fun pool ->
          let fault =
            {
              Ri_p2p.Fault.none with
              Ri_p2p.Fault.update_loss = 0.3;
              update_delay = 0.15;
              delay_waves = 2;
              crash = 0.1;
              link_flap = 0.02;
              drift = 0.75;
              stale_after = Some 1;
              retries = 2;
              backoff = 1;
            }
          in
          let cfg = Config.with_search small (Config.Ri (Config.eri small)) in
          let cfg = { cfg with Config.fault } in
          ignore
            (Runner.run ~pool spec (fun ~trial ->
                 (Trial.run_query_faulty cfg ~trial).Trial.f_messages_per_result))));
  let jsonl = Span.render_flat_jsonl () in
  Span.clear ();
  jsonl

let test_faulty_trace_bit_identical () =
  let jsonl1 = faulty_trace_run 1 in
  let jsonl4 = faulty_trace_run 4 in
  Alcotest.(check bool) "fault events recorded" true
    (Astring.String.is_infix ~affix:"\"name\":\"update_dropped\"" jsonl1);
  Alcotest.(check string) "faulty jsonl byte-identical at jobs 1 vs 4" jsonl1
    jsonl4

let test_chrome_shape () =
  let _, chrome = trace_run 1 in
  Alcotest.(check bool) "traceEvents envelope" true
    (Astring.String.is_prefix ~affix:"{\"traceEvents\":[" chrome);
  Alcotest.(check bool) "closes envelope" true
    (Astring.String.is_suffix ~affix:"\"displayTimeUnit\":\"ms\"}\n" chrome)

let test_trace_off_collects_nothing () =
  Alcotest.(check bool) "not recording" false (Span.recording Span.Events);
  let cfg = Config.with_search small (Config.Ri (Config.eri small)) in
  ignore (Trial.run_query cfg ~trial:0);
  Alcotest.(check string) "no events" "" (Span.render_flat_jsonl ())

(* Emitted artifacts must satisfy the strict JSON parser — a malformed
   export is a failure here, not a quirk tolerated downstream. *)
let test_trace_strict_json () =
  let jsonl, chrome = trace_run 1 in
  let doc = Json.parse_exn chrome in
  (match Json.member "traceEvents" doc with
  | Some (Json.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "chrome trace: traceEvents missing or empty");
  String.split_on_char '\n' jsonl
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match Json.parse line with
         | Error e -> Alcotest.failf "trace line rejected: %s\n%s" e line
         | Ok j ->
             if Json.member "name" j = None then
               Alcotest.failf "trace line without name: %s" line)

(* ------------------------------------------------------------------ *)
(* Decision provenance (tentpole): byte-identical across pool widths,   *)
(* strict-JSON clean, and silent when off.                              *)

let decision_run jobs =
  Span.clear ();
  Span.start [ Span.Decisions ];
  Fun.protect ~finally:Span.stop (fun () ->
      let spec =
        { Runner.min_trials = 3; max_trials = 6; target_rel_error = 0.05 }
      in
      Pool.with_pool ~jobs (fun pool ->
          let cfg = Config.with_search small (Config.Ri Config.cri) in
          ignore
            (Runner.run ~pool spec (fun ~trial ->
                 float_of_int (Trial.run_query cfg ~trial).Trial.messages))));
  let jsonl = Decision.render_jsonl () in
  Span.clear ();
  jsonl

let test_decision_bit_identical () =
  let jsonl1 = decision_run 1 in
  let jsonl4 = decision_run 4 in
  Alcotest.(check bool) "decisions recorded" true
    (Astring.String.is_infix ~affix:"\"kind\":\"decide\"" jsonl1);
  Alcotest.(check bool) "walk advances recorded" true
    (Astring.String.is_infix ~affix:"\"kind\":\"follow\"" jsonl1);
  Alcotest.(check bool) "stop recorded" true
    (Astring.String.is_infix ~affix:"\"kind\":\"stop\"" jsonl1);
  Alcotest.(check string) "decision jsonl byte-identical at jobs 1 vs 4"
    jsonl1 jsonl4

let test_decision_strict_json () =
  let jsonl = decision_run 2 in
  String.split_on_char '\n' jsonl
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match Json.parse line with
         | Error e -> Alcotest.failf "decision line rejected: %s\n%s" e line
         | Ok j ->
             List.iter
               (fun key ->
                 if Json.member key j = None then
                   Alcotest.failf "decision line without %s: %s" key line)
               [ "unit"; "trial"; "seq"; "kind" ])

let test_decision_off_collects_nothing () =
  Alcotest.(check bool) "not recording" false (Span.recording Span.Decisions);
  let cfg = Config.with_search small (Config.Ri Config.cri) in
  ignore (Trial.run_query cfg ~trial:0);
  Alcotest.(check string) "no records" "" (Decision.render_jsonl ())

(* ------------------------------------------------------------------ *)
(* Causal spans: byte-identical at any pool width, causally shaped.    *)

let span_run ?(faulty = false) jobs =
  Span.clear ();
  Span.start [ Span.Events ];
  Fun.protect ~finally:Span.stop (fun () ->
      let spec =
        { Runner.min_trials = 3; max_trials = 6; target_rel_error = 0.05 }
      in
      Pool.with_pool ~jobs (fun pool ->
          let cfg = Config.with_search small (Config.Ri (Config.eri small)) in
          let cfg =
            if not faulty then cfg
            else
              {
                cfg with
                Config.fault =
                  {
                    Ri_p2p.Fault.none with
                    Ri_p2p.Fault.update_loss = 0.3;
                    update_delay = 0.15;
                    delay_waves = 2;
                    crash = 0.1;
                    drift = 0.75;
                    stale_after = Some 1;
                    retries = 2;
                    backoff = 1;
                  };
              }
          in
          (if faulty then
             ignore
               (Runner.run ~pool spec (fun ~trial ->
                    (Trial.run_query_faulty cfg ~trial)
                      .Trial.f_messages_per_result))
           else
             ignore
               (Runner.run ~pool spec (fun ~trial ->
                    float_of_int (Trial.run_query cfg ~trial).Trial.messages)));
          ignore
            (Runner.run ~pool spec (fun ~trial ->
                 float_of_int
                   (Trial.run_update cfg ~trial).Trial.update_messages))));
  let jsonl = Span.render_jsonl () in
  let chrome = Span.render_chrome () in
  let otlp = Span.render_otlp () in
  Span.clear ();
  (jsonl, chrome, otlp)

let test_span_bit_identical () =
  let jsonl1, chrome1, otlp1 = span_run 1 in
  let jsonl4, chrome4, otlp4 = span_run 4 in
  Alcotest.(check bool) "spans recorded" true (String.length jsonl1 > 0);
  Alcotest.(check bool) "query roots present" true
    (Astring.String.is_infix ~affix:"\"name\":\"query\"" jsonl1);
  Alcotest.(check bool) "hop children present" true
    (Astring.String.is_infix ~affix:"\"name\":\"hop\"" jsonl1);
  Alcotest.(check bool) "update rounds present" true
    (Astring.String.is_infix ~affix:"\"name\":\"round\"" jsonl1);
  Alcotest.(check string) "span jsonl byte-identical" jsonl1 jsonl4;
  Alcotest.(check string) "span chrome byte-identical" chrome1 chrome4;
  Alcotest.(check string) "span otlp byte-identical" otlp1 otlp4

let test_span_faulty_bit_identical () =
  let jsonl1, _, _ = span_run ~faulty:true 1 in
  let jsonl4, _, _ = span_run ~faulty:true 4 in
  Alcotest.(check bool) "fault spans recorded" true
    (Astring.String.is_infix ~affix:"\"cat\":\"fault\"" jsonl1);
  Alcotest.(check string) "faulty span jsonl byte-identical" jsonl1 jsonl4

(* Every child must reference an earlier sid of its own trial, and end
   no earlier than it starts — the causal structure the renderers draw
   edges from.  Both structured exports must satisfy the strict JSON
   parser. *)
let test_span_causality () =
  Span.clear ();
  Span.start [ Span.Events ];
  Fun.protect ~finally:Span.stop (fun () ->
      let cfg = Config.with_search small (Config.Ri (Config.eri small)) in
      ignore (Trial.run_query cfg ~trial:0);
      ignore (Trial.run_update cfg ~trial:0));
  let groups = Span.spans () in
  Alcotest.(check bool) "spans collected" true (groups <> []);
  List.iter
    (fun (_, records) ->
      List.iter
        (fun (r : Span.record) ->
          if r.Span.parent >= 0 then
            Alcotest.(check bool) "parent created before child" true
              (r.Span.parent < r.Span.sid);
          Alcotest.(check bool) "t1 after t0" true (r.Span.t1 >= r.Span.t0))
        records)
    groups;
  let chrome = Span.render_chrome () in
  let otlp = Span.render_otlp () in
  Span.clear ();
  (match Json.parse chrome with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome spans rejected: %s" e);
  match Json.parse otlp with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "otlp spans rejected: %s" e

let test_span_off_collects_nothing () =
  Alcotest.(check bool) "not recording" false (Span.recording Span.Events);
  let cfg = Config.with_search small (Config.Ri (Config.eri small)) in
  ignore (Trial.run_query cfg ~trial:0);
  Alcotest.(check string) "no spans" "" (Span.render_jsonl ())

(* [start] only raises the recording flag: a stop/start cycle keeps the
   first batch, and only [clear] drops it. *)
let test_span_restart_keeps () =
  Span.clear ();
  let record trial =
    Span.start [ Span.Events ];
    Fun.protect ~finally:Span.stop (fun () ->
        Span.with_trial ~trial (fun sink ->
            ignore (Span.instant sink "mark" [ ("trial", Span.Int trial) ])))
  in
  record 0;
  record 1;
  let kept =
    List.map (fun ((_, trial), rs) -> (trial, List.length rs)) (Span.spans ())
  in
  Span.clear ();
  Alcotest.(check (list (pair int int))) "both batches kept" [ (0, 1); (1, 1) ] kept;
  Alcotest.(check int) "clear drops them" 0 (List.length (Span.spans ()))

(* One record per message, in every trial body.  Each non-root span kind
   has exactly as many records as its flat line, each stop/complete line
   closes one query root, and the flat view holds nothing else.  On the
   fault-free bodies the flat message lines also agree with the trial's
   own counters; the [`Spans] rows pin the root spans each body opens. *)
let flat_name_of_kind =
  [
    ("hop", "forward"); ("backtrack", "backtrack"); ("results", "results");
    ("retry", "timeout"); ("gave_up", "gave_up"); ("reconcile", "reconcile");
    ("round", "round"); ("deliver", "update_hop"); ("drop", "update_dropped");
    ("delay", "update_delayed"); ("ae_repair", "ae_repair");
  ]

let test_one_record_per_message () =
  let cfg = Config.with_search small (Config.Ri (Config.eri small)) in
  let faulty =
    {
      cfg with
      Config.fault =
        {
          Ri_p2p.Fault.none with
          Ri_p2p.Fault.update_loss = 0.2;
          update_delay = 0.1;
          delay_waves = 2;
          crash = 0.08;
          link_flap = 0.02;
          drift = 0.75;
          partition = 0.3;
          stale_after = Some 1;
          retries = 2;
          backoff = 1;
        };
    }
  in
  let trials f = List.init 2 (fun trial -> f ~trial) in
  let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
  let walk = [ "forward"; "backtrack"; "results" ] in
  let query_lines ms =
    [
      (`Spans, [ "query" ], 2);
      (`Flat, [ "forward" ], sum (fun m -> m.Trial.forwards) ms);
      (`Flat, [ "backtrack" ], sum (fun m -> m.Trial.returns) ms);
      (`Flat, [ "results" ], sum (fun m -> m.Trial.results) ms);
    ]
  in
  let traffic () =
    let opts =
      {
        Ri_experiments.Traffic.default_opts with
        Ri_experiments.Traffic.o_duration = 0.05;
        o_service_rate = 5000.;
        o_update_rate = 40.;
      }
    in
    let rs = trials (Ri_experiments.Traffic.simulate cfg ~opts ~qps:400.) in
    Ri_experiments.Traffic.
      [
        (`Spans, [ "query" ], sum (fun r -> r.r_completed) rs);
        (`Flat, walk, sum (fun r -> r.r_messages) rs);
        (`Flat, [ "update_hop" ], sum (fun r -> r.r_update_messages) rs);
      ]
  in
  let bodies =
    [
      ("query", [ "stop" ], fun () -> query_lines (trials (Trial.run_query cfg)));
      ( "perturbed",
        [ "stop" ],
        fun () ->
          query_lines
            (trials
               (Trial.run_query_perturbed cfg ~relative_stddev:0.3
                  ~kind:Ri_content.Compression.Mixed)) );
      ( "parallel",
        [],
        fun () ->
          let ms = trials (Trial.run_query_parallel cfg ~branch:2) in
          [
            (`Spans, [ "query_parallel" ], 2);
            (`Flat, walk, sum (fun m -> m.Trial.par_messages) ms);
          ] );
      ( "faulty",
        [ "stop" ],
        fun () ->
          ignore (trials (Trial.run_query_faulty faulty));
          [ (`Spans, [ "drift" ], 2); (`Spans, [ "query" ], 2) ] );
      ( "update",
        [],
        fun () ->
          let ms = trials (Trial.run_update cfg) in
          [
            (`Spans, [ "update_wave" ], 2);
            (`Flat, [ "update_hop" ], sum (fun m -> m.Trial.update_messages) ms);
          ] );
      ( "recovery",
        [],
        fun () ->
          ignore (trials (Trial.run_recovery faulty));
          [
            (`Spans, [ "drift" ], 2);
            (`Spans, [ "query" ], 4);
            (`Spans, [ "recovery" ], 2);
          ] );
      ("traffic", [ "complete" ], traffic);
    ]
  in
  List.iter
    (fun (body, point_lines, run) ->
      Span.clear ();
      Span.start [ Span.Events ];
      let expected = Fun.protect ~finally:Span.stop run in
      let spans = List.concat_map snd (Span.spans ()) in
      let flat = List.concat_map snd (Span.flat_events ()) in
      Span.clear ();
      let count_spans name =
        List.length (List.filter (fun r -> r.Span.name = name) spans)
      in
      let count_flat name =
        List.length (List.filter (fun f -> f.Span.f_name = name) flat)
      in
      let check what n m = Alcotest.(check int) (body ^ ": " ^ what) n m in
      check "records" 1 (min 1 (List.length flat));
      List.iter
        (fun (kind, line) ->
          check (kind ^ " = " ^ line) (count_spans kind) (count_flat line))
        flat_name_of_kind;
      List.iter
        (fun line -> check ("query roots = " ^ line) (count_spans "query") (count_flat line))
        point_lines;
      check "flat view holds nothing else" (List.length flat)
        (sum (fun (_, line) -> count_flat line) flat_name_of_kind
        + sum count_flat point_lines);
      List.iter
        (fun (view, names, n) ->
          let count = match view with `Spans -> count_spans | `Flat -> count_flat in
          check (String.concat "+" names) n (sum count names))
        expected)
    bodies

(* Kind independence: the event log, the decision records and the
   traffic timeline each record only when asked for, and turning the
   others on beside one changes none of its bytes or unit numbers.  Two
   setups: a Runner sweep of the faulty and recovery trial bodies, and
   one traffic point with update waves. *)
let record_kinds kinds run =
  Span.clear ();
  Span.start kinds;
  Fun.protect ~finally:Span.stop run;
  let exports =
    [
      (Span.Events, Span.render_jsonl () ^ Span.render_flat_jsonl ());
      (Span.Decisions, Decision.render_jsonl ());
      (Span.Timeline, Observatory.render_jsonl ());
    ]
  in
  Span.clear ();
  exports

let test_kinds_independent () =
  let all = Span.[ Events; Decisions; Timeline ] in
  let name = function
    | Span.Events -> "events"
    | Span.Decisions -> "decisions"
    | Span.Timeline -> "timeline"
  in
  let check_setup setup ~filled run =
    let together = record_kinds all run in
    List.iter
      (fun kind ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s recorded" setup (name kind))
          true
          (List.assoc kind together <> ""))
      filled;
    List.iter
      (fun kind ->
        let alone = record_kinds [ kind ] run in
        List.iter
          (fun (k, text) ->
            let what = Printf.sprintf "%s: %s with only %s on" setup (name k) (name kind) in
            if k = kind then Alcotest.(check string) what (List.assoc k together) text
            else Alcotest.(check string) what "" text)
          alone)
      all
  in
  let base = Config.scaled { Config.base with Config.seed = 42 } ~num_nodes:200 in
  let faulty =
    {
      (Config.with_search base (Config.Ri (Config.eri base))) with
      Config.fault =
        {
          Ri_p2p.Fault.none with
          Ri_p2p.Fault.update_loss = 0.3;
          crash = 0.1;
          drift = 0.75;
          stale_after = Some 1;
          retries = 2;
          backoff = 1;
        };
    }
  in
  let spec = { Runner.min_trials = 2; max_trials = 2; target_rel_error = 0.05 } in
  check_setup "faults" ~filled:Span.[ Events; Decisions ] (fun () ->
      Pool.with_pool ~jobs:2 (fun pool ->
          ignore
            (Runner.run ~pool spec (fun ~trial ->
                 (Trial.run_query_faulty faulty ~trial).Trial.f_recall));
          ignore
            (Runner.run ~pool spec (fun ~trial ->
                 (Trial.run_recovery faulty ~trial).Trial.r_restored_recall))));
  let small = Config.scaled { Config.base with Config.seed = 42 } ~num_nodes:300 in
  let cfg = Config.with_search small (Config.Ri (Config.eri small)) in
  let opts =
    {
      Ri_experiments.Traffic.default_opts with
      Ri_experiments.Traffic.o_qps = [ 400. ];
      o_duration = 0.05;
      o_service_rate = 5000.;
      o_update_rate = 40.;
      o_trials = 2;
    }
  in
  check_setup "traffic" ~filled:Span.[ Events; Timeline ] (fun () ->
      ignore (Ri_experiments.Traffic.measure ~opts cfg ~qps:400.))

(* ------------------------------------------------------------------ *)
(* Registry domain-safety: concurrent registration and recording from  *)
(* several domains must land every observation exactly once.           *)

let test_racing_registration () =
  with_metrics (fun () ->
      let domains =
        Array.init 4 (fun _ ->
            Domain.spawn (fun () ->
                (* same names from every domain: registration must be
                   race-free and idempotent *)
                let c = Metrics.counter "ri_test_race_total" in
                let s = Metrics.summary "ri_test_race_summary" in
                for i = 1 to 1000 do
                  Metrics.incr c;
                  Metrics.observe s (float_of_int i)
                done))
      in
      Array.iter Domain.join domains;
      let text = Metrics.render () in
      Alcotest.(check bool) "all increments counted" true
        (Astring.String.is_infix ~affix:"ri_test_race_total 4000" text);
      Alcotest.(check int) "all observations sketched" 4000
        (Sketch.count (Metrics.snapshot (Metrics.summary "ri_test_race_summary"))))

(* ------------------------------------------------------------------ *)
(* Per-phase GC profiling.                                             *)

let test_gcprof_wrap () =
  Gcprof.reset ();
  let v =
    Gcprof.wrap "gcprof_test" (fun () ->
        Array.length (Array.init 100_000 (fun i -> float_of_int i)))
  in
  Alcotest.(check int) "body result" 100_000 v;
  match List.filter (fun s -> s.Gcprof.g_phase = "gcprof_test") (Gcprof.stats ()) with
  | [ s ] ->
      Alcotest.(check int) "one sample" 1 s.Gcprof.g_samples;
      Alcotest.(check bool) "minor words counted" true
        (s.Gcprof.g_minor_words > 100_000.);
      Alcotest.(check bool) "table rendered" true
        (List.exists
           (fun l -> Astring.String.is_infix ~affix:"gcprof_test" l)
           (Gcprof.table_lines ()));
      Gcprof.reset ();
      Alcotest.(check int) "reset empties" 0 (List.length (Gcprof.stats ()))
  | other ->
      Alcotest.failf "expected one gcprof_test entry, got %d"
        (List.length other)

(* ------------------------------------------------------------------ *)
(* Live HTTP endpoint.                                                 *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      (try drain () with Unix.Unix_error _ -> ());
      Buffer.contents buf)

let test_serve_endpoints () =
  let srv = Serve.start ~port:0 ~metrics:(fun () -> "ri_test_metric 1\n") () in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let port = Serve.port srv in
      Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
      let health = http_get port "/healthz" in
      Alcotest.(check bool) "healthz 200" true
        (Astring.String.is_prefix ~affix:"HTTP/1.1 200 OK" health);
      Alcotest.(check bool) "healthz body" true
        (Astring.String.is_suffix ~affix:"ok\n" health);
      let metrics = http_get port "/metrics" in
      Alcotest.(check bool) "metrics body served" true
        (Astring.String.is_infix ~affix:"ri_test_metric 1" metrics);
      Serve.Progress.begin_run ~label:"serve-test" ~total:10 ();
      Serve.Progress.set_trials 4;
      let progress = http_get port "/progress" in
      (match Astring.String.cut ~sep:"\r\n\r\n" progress with
      | Some (_, body) -> (
          match Json.parse body with
          | Error e -> Alcotest.failf "/progress not strict JSON: %s" e
          | Ok j ->
              Alcotest.(check bool) "label carried" true
                (Json.member "label" j = Some (Json.Str "serve-test"));
              Alcotest.(check bool) "trials carried" true
                (match Json.member "trials_done" j with
                | Some v -> Json.to_float v = Some 4.
                | None -> false))
      | None -> Alcotest.fail "/progress: no header/body split");
      let missing = http_get port "/nope" in
      Alcotest.(check bool) "404 for unknown path" true
        (Astring.String.is_prefix ~affix:"HTTP/1.1 404" missing));
  (* after stop, the port must refuse connections *)
  Alcotest.(check bool) "stopped server refuses" true
    (try
       ignore (http_get (Serve.port srv) "/healthz");
       false
     with Unix.Unix_error _ -> true)

let body_of response =
  match Astring.String.cut ~sep:"\r\n\r\n" response with
  | Some (_, body) -> body
  | None -> Alcotest.failf "no header/body split in %S" response

let strict_json what response =
  Alcotest.(check bool) (what ^ " 200") true
    (Astring.String.is_prefix ~affix:"HTTP/1.1 200 OK" response);
  match Json.parse (body_of response) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s not strict JSON: %s" what e

let test_serve_traffic_endpoint () =
  Serve.Traffic.clear ();
  let srv = Serve.start ~port:0 ~metrics:(fun () -> "") () in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop srv;
      Serve.Traffic.clear ())
    (fun () ->
      let port = Serve.port srv in
      (* the empty state is itself valid JSON with an empty point list *)
      let j = strict_json "/traffic (empty)" (http_get port "/traffic") in
      Alcotest.(check bool) "empty points" true
        (Json.member "points" j = Some (Json.Arr []));
      Serve.Traffic.publish "{\"points\": [{\"qps\": 7}], \"knee_qps\": 7}";
      let j = strict_json "/traffic (published)" (http_get port "/traffic") in
      (match Json.member "points" j with
      | Some (Json.Arr [ p ]) ->
          Alcotest.(check bool) "published point served" true
            (Option.bind (Json.member "qps" p) Json.to_float = Some 7.)
      | _ -> Alcotest.fail "published snapshot not served back");
      Serve.Traffic.clear ();
      let j = strict_json "/traffic (cleared)" (http_get port "/traffic") in
      Alcotest.(check bool) "clear resets to the empty state" true
        (Json.member "points" j = Some (Json.Arr [])))

(* Two servers racing for ephemeral ports must come up independently:
   distinct ports, both serving, both stopping cleanly.  (This is the
   CI pattern: a backgrounded sweep's server plus an ad-hoc one.) *)
let test_serve_ephemeral_port_race () =
  let a = Serve.start ~port:0 ~metrics:(fun () -> "a\n") () in
  let b =
    try Serve.start ~port:0 ~metrics:(fun () -> "b\n") ()
    with e ->
      Serve.stop a;
      raise e
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop a;
      Serve.stop b)
    (fun () ->
      Alcotest.(check bool) "distinct ephemeral ports" true
        (Serve.port a <> Serve.port b);
      Alcotest.(check bool) "first serves its own metrics" true
        (Astring.String.is_suffix ~affix:"a\n"
           (http_get (Serve.port a) "/metrics"));
      Alcotest.(check bool) "second serves its own metrics" true
        (Astring.String.is_suffix ~affix:"b\n"
           (http_get (Serve.port b) "/metrics")))

(* The live-endpoint contract under load: while a traffic sweep runs in
   the background, /progress and /traffic stay strict-JSON at every
   poll, the sweep's own publishes land, and shutdown is clean with the
   port refusing connections afterwards. *)
let test_serve_under_background_sweep () =
  let module Traffic = Ri_experiments.Traffic in
  let small = Config.scaled Config.base ~num_nodes:300 in
  let cfg = Config.with_search small (Config.Ri (Config.eri small)) in
  let opts =
    {
      Traffic.default_opts with
      Traffic.o_qps = [ 200.; 400. ];
      o_duration = 0.1;
      o_service_rate = 5000.;
      o_link_latency = 0.1;
      o_trials = 2;
    }
  in
  Serve.Traffic.clear ();
  let srv = Serve.start ~port:0 ~metrics:(fun () -> "") () in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !stopped then Serve.stop srv;
      Serve.Traffic.clear ())
    (fun () ->
      let port = Serve.port srv in
      let sweep_done = Atomic.make false in
      let dom =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set sweep_done true)
              (fun () -> Traffic.sweep ~opts cfg ()))
      in
      (* poll both endpoints until the sweep finishes; every response
         must parse strictly *)
      let polls = ref 0 in
      while not (Atomic.get sweep_done) do
        incr polls;
        ignore (strict_json "/progress (mid-sweep)" (http_get port "/progress"));
        ignore (strict_json "/traffic (mid-sweep)" (http_get port "/traffic"))
      done;
      let points = Domain.join dom in
      Alcotest.(check bool) "polled at least once mid-sweep" true (!polls > 0);
      Alcotest.(check int) "sweep finished both points" 2 (List.length points);
      (* after the sweep, /traffic carries the full document *)
      let j = strict_json "/traffic (after)" (http_get port "/traffic") in
      (match Json.member "points" j with
      | Some (Json.Arr ps) ->
          Alcotest.(check int) "both points published" 2 (List.length ps);
          List.iter
            (fun p ->
              Alcotest.(check bool) "decomposition present" true
                (Json.member "queue_ms" p <> None);
              match Json.member "q_hotspots" p with
              | Some (Json.Arr (_ :: _)) -> ()
              | _ -> Alcotest.fail "hotspots missing from the live snapshot")
            ps
      | _ -> Alcotest.fail "no points array after the sweep");
      let progress = strict_json "/progress (after)" (http_get port "/progress") in
      Alcotest.(check bool) "progress label names the sweep" true
        (match Json.member "label" progress with
        | Some (Json.Str s) -> Astring.String.is_prefix ~affix:"traffic" s
        | _ -> false);
      Serve.stop srv;
      stopped := true;
      Alcotest.(check bool) "port refuses after clean shutdown" true
        (try
           ignore (http_get port "/healthz");
           false
         with Unix.Unix_error _ -> true))

(* ------------------------------------------------------------------ *)
(* Telemetry surfacing.                                                *)

let test_telemetry_lines () =
  let cache = Telemetry.cache_line () in
  let pool = Telemetry.pool_line () in
  Alcotest.(check bool) "cache line" true
    (Astring.String.is_prefix ~affix:"setup-cache:" cache);
  Alcotest.(check bool) "pool line" true
    (Astring.String.is_prefix ~affix:"pool:" pool);
  with_metrics (fun () ->
      Telemetry.export_metrics ();
      let text = Metrics.render () in
      Alcotest.(check bool) "cache gauges exported" true
        (Astring.String.is_infix ~affix:"ri_setup_cache_hits" text);
      Alcotest.(check bool) "pool gauges exported" true
        (Astring.String.is_infix ~affix:"ri_pool_jobs" text))

let suite =
  ( "observability",
    [
      Alcotest.test_case "counter math" `Quick test_counter_math;
      Alcotest.test_case "gauge math" `Quick test_gauge_math;
      Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_noop;
      Alcotest.test_case "registration idempotent" `Quick
        test_registration_idempotent;
      Alcotest.test_case "trace byte-identical across jobs" `Quick
        test_trace_bit_identical;
      Alcotest.test_case "faulty trace byte-identical across jobs" `Quick
        test_faulty_trace_bit_identical;
      Alcotest.test_case "chrome trace shape" `Quick test_chrome_shape;
      Alcotest.test_case "trace is strict JSON" `Quick test_trace_strict_json;
      Alcotest.test_case "no recording without start" `Quick
        test_trace_off_collects_nothing;
      Alcotest.test_case "telemetry lines and gauges" `Quick
        test_telemetry_lines;
      Alcotest.test_case "spans byte-identical across jobs" `Quick
        test_span_bit_identical;
      Alcotest.test_case "faulty spans byte-identical across jobs" `Quick
        test_span_faulty_bit_identical;
      Alcotest.test_case "span causality and strict JSON" `Quick
        test_span_causality;
      Alcotest.test_case "no spans without start" `Quick
        test_span_off_collects_nothing;
      Alcotest.test_case "span restart keeps earlier spans" `Quick
        test_span_restart_keeps;
      Alcotest.test_case "one record per message in every trial body" `Quick
        test_one_record_per_message;
      Alcotest.test_case "recording kinds are independent" `Quick
        test_kinds_independent;
      Alcotest.test_case "decisions byte-identical across jobs" `Quick
        test_decision_bit_identical;
      Alcotest.test_case "decisions strict JSON" `Quick
        test_decision_strict_json;
      Alcotest.test_case "no decisions without start" `Quick
        test_decision_off_collects_nothing;
      Alcotest.test_case "racing registration across domains" `Quick
        test_racing_registration;
      Alcotest.test_case "gcprof wrap accumulates" `Quick test_gcprof_wrap;
      Alcotest.test_case "live HTTP endpoint" `Quick test_serve_endpoints;
      Alcotest.test_case "/traffic publish, read back, clear" `Quick
        test_serve_traffic_endpoint;
      Alcotest.test_case "ephemeral-port race" `Quick
        test_serve_ephemeral_port_race;
      Alcotest.test_case "endpoints strict under a backgrounded sweep"
        `Quick test_serve_under_background_sweep;
    ] )
