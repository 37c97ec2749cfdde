(* Golden bit-identity tests: fig13 and fig18 at a small scale must
   reproduce, bit for bit, the cell values captured before the flat
   routing-index store and delta-update refactor landed.  Any change to
   aggregation order, goodness arithmetic or wave scheduling shows up
   here as a one-ULP difference long before it is visible in the
   rendered tables (which round to one decimal).  fig19, the figure
   whose waves read the rows converged builds leave on cycle-closing
   links, is pinned the same way, from values captured before the
   converged build became one flat pass.

   The expected values are IEEE-754 bit patterns (Int64.bits_of_float)
   captured at nodes=200, trials=3, seed=42 on the pre-refactor tree.
   Regenerate by running the suite with RI_GOLDEN_PRINT=1 and pasting
   the printed table — but only when a change is *meant* to alter the
   numbers, and say so in the commit.

   The fault and recovery sweeps are pinned the same way, and the faulty
   walk's full event and decision streams are pinned by one digest over
   a matrix of topologies, cycle policies, schemes and budgets. *)

open Ri_sim

(* RI_GOLDEN_PRINT=1 prints the values being pinned (see above). *)
let golden_print = Sys.getenv_opt "RI_GOLDEN_PRINT" = Some "1"

let nodes = 200

let spec = { Runner.min_trials = 3; max_trials = 3; target_rel_error = 0.1 }

let base = Config.scaled { Config.base with Config.seed = 42 } ~num_nodes:nodes

let cells report =
  let open Ri_experiments in
  List.concat
    (List.mapi
       (fun r row ->
         List.filteri (fun _ c -> c.Report.value <> None) row
         |> List.mapi (fun c cell ->
                ( Printf.sprintf "r%dc%d" r c,
                  match cell.Report.value with Some v -> v | None -> 0. )))
       report.Report.rows)

let expected_fig13 =
  [
    ("r0c0", 0x4073655555555555L);
    ("r0c1", 0x4077300000000000L);
    ("r1c0", 0x4072baaaaaaaaaabL);
    ("r1c1", 0x4073faaaaaaaaaabL);
    ("r2c0", 0x4072baaaaaaaaaabL);
    ("r2c1", 0x4073faaaaaaaaaabL);
    ("r3c0", 0x4076355555555555L);
    ("r3c1", 0x4077f55555555555L);
  ]

let expected_fig18 =
  [
    ("r0c0", 0x4068e00000000000L);
    ("r0c1", 0x406b600000000000L);
    ("r0c2", 0x406d6aaaaaaaaaabL);
    ("r1c0", 0x405beaaaaaaaaaabL);
    ("r1c1", 0x405f400000000000L);
    ("r1c2", 0x405bc00000000000L);
    ("r2c0", 0x4019555555555555L);
    ("r2c1", 0x401aaaaaaaaaaaabL);
    ("r2c2", 0x401c000000000000L);
  ]

let expected_fig19 =
  [
    ("r0c0", 0x3ff0000000000000L);
    ("r0c1", 0x4019555555555555L);
    ("r0c2", 0x4019555555555555L);
    ("r1c0", 0x4024000000000000L);
    ("r1c1", 0x4019555555555555L);
    ("r1c2", 0x4019555555555555L);
    ("r2c0", 0x4059000000000000L);
    ("r2c1", 0x4019555555555555L);
    ("r2c2", 0x4019555555555555L);
    ("r3c0", 0x408f400000000000L);
    ("r3c1", 0x4019555555555555L);
    ("r3c2", 0x4019555555555555L);
    ("r4c0", 0x40c3880000000000L);
    ("r4c1", 0x401d555555555555L);
    ("r4c2", 0x401d555555555555L);
  ]

let expected_faults =
  [
    ("r0c0", 0x4040e22222222222L);
    ("r0c1", 0x4045ed097b425ed1L);
    ("r0c2", 0x4046a7b425ed097bL);
    ("r0c3", 0x405ba38e38e38e39L);
    ("r0c4", 0x405a1ac056b015acL);
    ("r1c0", 0x3ff0000000000000L);
    ("r1c1", 0x3feccccccccccccdL);
    ("r1c2", 0x3febbbbbbbbbbbbcL);
    ("r1c3", 0x3fe3333333333334L);
    ("r1c4", 0x3fe1111111111111L);
    ("r2c0", 0x4040e22222222222L);
    ("r2c1", 0x404738e38e38e38eL);
    ("r2c2", 0x40490425ed097b43L);
    ("r2c3", 0x405cd097b425ed0aL);
    ("r2c4", 0x405ade79e79e79e8L);
    ("r3c0", 0x3ff0000000000000L);
    ("r3c1", 0x3feccccccccccccdL);
    ("r3c2", 0x3febbbbbbbbbbbbcL);
    ("r3c3", 0x3fe3333333333334L);
    ("r3c4", 0x3fe1111111111111L);
    ("r4c0", 0x403f4cccccccccccL);
    ("r4c1", 0x4045ed097b425ed1L);
    ("r4c2", 0x4046a7b425ed097bL);
    ("r4c3", 0x405bce38e38e38e4L);
    ("r4c4", 0x4053565965965966L);
    ("r5c0", 0x3ff0000000000000L);
    ("r5c1", 0x3feccccccccccccdL);
    ("r5c2", 0x3febbbbbbbbbbbbcL);
    ("r5c3", 0x3fe3333333333334L);
    ("r5c4", 0x3fe1111111111111L);
    ("r6c0", 0x403f4cccccccccccL);
    ("r6c1", 0x4047684bda12f685L);
    ("r6c2", 0x405029c71c71c71cL);
    ("r6c3", 0x405d12f684bda12fL);
    ("r6c4", 0x405b1c1b1706c5c2L);
    ("r7c0", 0x3ff0000000000000L);
    ("r7c1", 0x3feccccccccccccdL);
    ("r7c2", 0x3febbbbbbbbbbbbcL);
    ("r7c3", 0x3fe3333333333334L);
    ("r7c4", 0x3fe1111111111111L);
    ("r8c0", 0x4040f33333333333L);
    ("r8c1", 0x404baaaaaaaaaaabL);
    ("r8c2", 0x4051f5a12f684bdaL);
    ("r8c3", 0x405efda12f684bdaL);
    ("r8c4", 0x405c52f684bda12fL);
    ("r9c0", 0x3ff0000000000000L);
    ("r9c1", 0x3feccccccccccccdL);
    ("r9c2", 0x3febbbbbbbbbbbbcL);
    ("r9c3", 0x3fe3333333333334L);
    ("r9c4", 0x3fe1111111111111L);
    ("r10c0", 0x4040f33333333333L);
    ("r10c1", 0x404baaaaaaaaaaabL);
    ("r10c2", 0x4051f5a12f684bdaL);
    ("r10c3", 0x405efda12f684bdaL);
    ("r10c4", 0x405c52f684bda12fL);
    ("r11c0", 0x3ff0000000000000L);
    ("r11c1", 0x3feccccccccccccdL);
    ("r11c2", 0x3febbbbbbbbbbbbcL);
    ("r11c3", 0x3fe3333333333334L);
    ("r11c4", 0x3fe1111111111111L);
    ("r12c0", 0x4042488888888888L);
    ("r12c1", 0x4045ed097b425ed1L);
    ("r12c2", 0x4046a7b425ed097bL);
    ("r12c3", 0x4052ce38e38e38e3L);
    ("r12c4", 0x4051ccde233788ceL);
    ("r13c0", 0x3ff0000000000000L);
    ("r13c1", 0x3feccccccccccccdL);
    ("r13c2", 0x3febbbbbbbbbbbbcL);
    ("r13c3", 0x3fe3333333333334L);
    ("r13c4", 0x3fe1111111111111L);
    ("r14c0", 0x4034d55555555556L);
    ("r14c1", 0x403625ed097b425fL);
    ("r14c2", 0x4036c00000000000L);
    ("r14c3", 0x404267b425ed097bL);
    ("r14c4", 0x4040c7c9d1f2747dL);
    ("r15c0", 0x3ff0000000000000L);
    ("r15c1", 0x3feccccccccccccdL);
    ("r15c2", 0x3febbbbbbbbbbbbcL);
    ("r15c3", 0x3fe3333333333334L);
    ("r15c4", 0x3fe1111111111111L);
  ]

let expected_recovery =
  [
    ("r0c0", 0x3ff0000000000000L);
    ("r0c1", 0x3ff0000000000000L);
    ("r0c2", 0x3ff0000000000000L);
    ("r1c0", 0x3fe2222222222223L);
    ("r1c1", 0x3fdbbbbbbbbbbbbcL);
    ("r1c2", 0x3fcddddddddddddfL);
    ("r2c0", 0x4002aaaaaaaaaaabL);
    ("r2c1", 0x4008000000000000L);
    ("r2c2", 0x4008000000000000L);
    ("r3c0", 0x3ff0000000000000L);
    ("r3c1", 0x3ff0000000000000L);
    ("r3c2", 0x3ff0000000000000L);
    ("r4c0", 0x3fe2222222222223L);
    ("r4c1", 0x3fdbbbbbbbbbbbbcL);
    ("r4c2", 0x3fcddddddddddddfL);
    ("r5c0", 0x4002aaaaaaaaaaabL);
    ("r5c1", 0x400d555555555555L);
    ("r5c2", 0x400aaaaaaaaaaaabL);
    ("r6c0", 0x3ff0000000000000L);
    ("r6c1", 0x3ff0000000000000L);
    ("r6c2", 0x3ff0000000000000L);
    ("r7c0", 0x3fe2222222222223L);
    ("r7c1", 0x3fdbbbbbbbbbbbbcL);
    ("r7c2", 0x3fcddddddddddddfL);
    ("r8c0", 0x4002aaaaaaaaaaabL);
    ("r8c1", 0x4002aaaaaaaaaaabL);
    ("r8c2", 0x4002aaaaaaaaaaabL);
  ]

let check_report id run expected () =
  let report = run ~base ~spec in
  let actual = cells report in
  if golden_print then
    List.iter
      (fun (k, v) ->
        Printf.printf "    (%S, 0x%LxL);\n" k (Int64.bits_of_float v))
      actual;
  Alcotest.(check int)
    (id ^ " cell count") (List.length expected) (List.length actual);
  List.iter2
    (fun (k, bits) (k', v) ->
      Alcotest.(check string) (id ^ " cell key") k k';
      Alcotest.(check int64)
        (Printf.sprintf "%s %s bits" id k)
        bits (Int64.bits_of_float v))
    expected actual

(* The faulty walk end to end: every outcome, fault counter, decision
   record and trace event of [Trial.run_query_faulty] across both cycle
   policies on a tree and a cyclic overlay, every search mechanism, with
   and without a query budget, and every fault class switched on.  One
   MD5 pins the lot; the totals below only guard that the matrix keeps
   exercising each faulty transition. *)
let faulty_walk_nodes = 300

let faulty_walk_trials = 4

let expected_faulty_walk_digest = "439e244dae0f9a765905a1d239343599"

let faulty_spec budget =
  {
    Ri_p2p.Fault.update_loss = 0.2;
    update_delay = 0.1;
    delay_waves = 2;
    crash = 0.08;
    link_flap = 0.05;
    drift = 0.75;
    partition = 0.2;
    heal_after = None;
    stale_after = Some 1;
    retries = 2;
    backoff = 1;
    query_budget = budget;
  }

let faulty_walk_configs () =
  let base =
    Config.scaled
      { Config.base with Config.seed = 42 }
      ~num_nodes:faulty_walk_nodes
  in
  List.concat_map
    (fun topology ->
      List.concat_map
        (fun cycle_policy ->
          List.concat_map
            (fun search ->
              List.map
                (fun budget ->
                  {
                    (Config.with_search (Config.with_topology base topology)
                       search)
                    with
                    Config.cycle_policy;
                    fault = faulty_spec budget;
                  })
                [ None; Some 25 ])
            Config.[ Ri cri; Ri (hri base); Ri (eri base); No_ri ])
        Ri_p2p.Network.[ No_op; Detect_recover ])
    [ Config.Tree; Config.Tree_with_cycles { extra_links = 40 } ]
  (* [Trial.build] rejects CRI on a cyclic no-op overlay. *)
  |> List.filter (fun cfg -> Config.validate cfg = Ok ())

let faulty_walk_digest () =
  let open Ri_obs in
  let configs = faulty_walk_configs () in
  let buf = Buffer.create (1 lsl 20) in
  let budget_stops = ref 0 and timeouts = ref 0 in
  let gave_up = ref 0 and reconciles = ref 0 in
  let record cfg ~trial =
    let m = Trial.run_query_faulty cfg ~trial in
    let q = m.Trial.f_query and st = m.Trial.f_stats in
    budget_stops := !budget_stops + st.Ri_p2p.Fault.budget_stops;
    timeouts := !timeouts + st.Ri_p2p.Fault.timeouts;
    Printf.bprintf buf
      "trial=%d msgs=%d fwd=%d ret=%d res=%d found=%d sat=%b visited=%d \
       bytes=%h clean=%d recall=%h drift=%d repair=%d mpr=%h\n"
      trial q.Trial.messages q.Trial.forwards q.Trial.returns q.Trial.results
      q.Trial.found q.Trial.satisfied q.Trial.nodes_visited q.Trial.bytes
      m.Trial.f_clean_found m.Trial.f_recall m.Trial.f_drift_messages
      m.Trial.f_repair_messages m.Trial.f_messages_per_result;
    Ri_p2p.Fault.(
      Printf.bprintf buf "stats %d %d %d %d %d %d %d %d %d %d %d %d\n"
        st.crashes st.update_drops st.update_dead st.update_delays
        st.partition_drops st.timeouts st.retries_used st.backoff_total
        st.fallbacks st.repairs st.recoveries st.budget_stops)
  in
  List.iter
    (fun cfg ->
      Buffer.add_string buf (Config.search_name cfg.Config.search ^ "\n");
      Span.clear ();
      Span.start [ Span.Events; Span.Decisions ];
      Fun.protect ~finally:Span.stop
        (fun () ->
          for trial = 0 to faulty_walk_trials - 1 do
            record cfg ~trial
          done);
      Buffer.add_string buf (Decision.render_jsonl ());
      Buffer.add_string buf (Span.render_flat_jsonl ());
      List.iter
        (fun (_, events) ->
          List.iter
            (fun e ->
              match e.Span.f_name with
              | "gave_up" -> incr gave_up
              | "reconcile" -> incr reconciles
              | _ -> ())
            events)
        (Span.flat_events ());
      Span.clear ())
    configs;
  let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  if golden_print then
    Printf.printf
      "faulty walk: %d configs, %d budget stops, %d timeouts, %d give-ups, \
       %d reconciles, digest %s\n"
      (List.length configs) !budget_stops !timeouts !gave_up !reconciles digest;
  Alcotest.(check int) "configs" 30 (List.length configs);
  Alcotest.(check bool) "budget stops exercised" true (!budget_stops > 0);
  Alcotest.(check bool) "timeouts exercised" true (!timeouts > 0);
  Alcotest.(check bool) "give-ups exercised" true (!gave_up > 0);
  Alcotest.(check bool) "reconciles exercised" true (!reconciles > 0);
  Alcotest.(check string) "digest" expected_faulty_walk_digest digest

(* Recorder goldens: one MD5 per export of every trial body — the flat
   trace as JSONL and Chrome, the causal spans as JSONL, Chrome and
   OTLP — each over two trials driven through [Runner.run], so unit
   numbering is pinned too. *)
let recorder_cfg =
  let cfg = Config.scaled { Config.base with Config.seed = 42 } ~num_nodes:nodes in
  Config.with_search cfg (Config.Ri (Config.eri cfg))

let recorder_fault =
  { (faulty_spec None) with Ri_p2p.Fault.partition = 0.3; link_flap = 0. }

let two_trials f =
  let spec = { Runner.min_trials = 2; max_trials = 2; target_rel_error = 0.1 } in
  ignore (Runner.run spec (fun ~trial -> ignore (f ~trial); 0.))

let trace_views run =
  let open Ri_obs in
  Span.clear ();
  Span.start [ Span.Events ];
  Fun.protect ~finally:Span.stop run;
  let views =
    [ ("trace jsonl", Span.render_flat_jsonl ()); ("trace chrome", Span.render_flat_chrome ()) ]
  in
  Span.clear ();
  views

let span_views run =
  let open Ri_obs in
  Span.clear ();
  Span.start [ Span.Events ];
  Fun.protect ~finally:Span.stop run;
  let views =
    [
      ("spans jsonl", Span.render_jsonl ());
      ("spans chrome", Span.render_chrome ());
      ("spans otlp", Span.render_otlp ());
    ]
  in
  Span.clear ();
  views

let recorder_bodies =
  let cfg = recorder_cfg in
  let faulty = { cfg with Config.fault = recorder_fault } in
  let traffic () =
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
    ignore (Ri_experiments.Traffic.measure ~opts cfg ~qps:400.)
  in
  [
    ("query", `Both, fun () -> two_trials (Trial.run_query cfg));
    ( "perturbed",
      `Both,
      fun () ->
        two_trials
          (Trial.run_query_perturbed cfg ~relative_stddev:0.3
             ~kind:Ri_content.Compression.Mixed) );
    ("parallel", `Both, fun () -> two_trials (Trial.run_query_parallel cfg ~branch:2));
    ("update", `Both, fun () -> two_trials (Trial.run_update cfg));
    ("faulty", `Spans, fun () -> two_trials (Trial.run_query_faulty faulty));
    ("recovery", `Trace, fun () -> two_trials (Trial.run_recovery faulty));
    ("traffic", `Trace, traffic);
  ]

let expected_recorder_digests =
  [
    ("query trace jsonl", "d5663b8d4d4bc6e7d536ae3f75cee8ee");
    ("query trace chrome", "a2782f3cd5e158c1b7037f2d188d78a0");
    ("query spans jsonl", "5f62b99d3065c4113bafb9aa8aaa762f");
    ("query spans chrome", "85894b55d23dcde2195ac44f32eaf9a7");
    ("query spans otlp", "4fe83d90b58c17665ac1416fe889f0a3");
    ("perturbed trace jsonl", "91fab257e9d41e535e666d043f1611b6");
    ("perturbed trace chrome", "622a50603468473f3be03d3ea58cd0a0");
    ("perturbed spans jsonl", "3e95fea96e0344598d8e87c83f88ff69");
    ("perturbed spans chrome", "64660e010c4ceefb63b9cf5d9c229439");
    ("perturbed spans otlp", "16e70705e9336fe9376f28a3d1402cd2");
    ("parallel trace jsonl", "8c5cf6416df82ce110a31defcf90a327");
    ("parallel trace chrome", "60a6b40e514814d2e85772551cc0e7d2");
    ("parallel spans jsonl", "8733c6f73245963e7ef4b21bd08c5e37");
    ("parallel spans chrome", "98e11dbb606be8a297bc0018c89cc694");
    ("parallel spans otlp", "1ece78a26a0cec1e078a2d36ae955a88");
    ("update trace jsonl", "e1025891cbb40e572e8ecdf9a8e47119");
    ("update trace chrome", "8bfd780dbe4cbc67b659b17ecc0cc77d");
    ("update spans jsonl", "2f5a18489d4b6f0f4427610855d5a1b1");
    ("update spans chrome", "e6f8825764b6599b4b97d791b07f3fc7");
    ("update spans otlp", "1bc8593f20f9ede870e589ad87f2d8ca");
    ("faulty spans jsonl", "41b1c49b2b5d61931e96160ca0c9590a");
    ("faulty spans chrome", "f08c6a4e09dfa52206e92e26ad46fe5c");
    ("faulty spans otlp", "ae5fffbc8f09a1b69501f9dc656d8da9");
    ("recovery trace jsonl", "3f92e302d8e704001e37b888b343e93b");
    ("recovery trace chrome", "31ad5e784b93c70d0ab733deecec818e");
    ("traffic trace jsonl", "5952b9cd92a9fc8a849996ae392f45a7");
    ("traffic trace chrome", "11e059fdb448a332de4193fd4c6f7f14");
  ]

let recorder_golden (body, which, run) () =
  let views =
    (match which with `Both | `Trace -> trace_views run | `Spans -> [])
    @ match which with `Both | `Spans -> span_views run | `Trace -> []
  in
  let digests =
    List.map
      (fun (view, text) ->
        let key = body ^ " " ^ view in
        let digest = Digest.to_hex (Digest.string text) in
        if golden_print then
          Printf.printf "    (%S, %S);\n" key digest;
        Alcotest.(check bool) (key ^ " not empty") true (text <> "");
        (key, digest))
      views
  in
  List.iter
    (fun (key, digest) ->
      Alcotest.(check (option string))
        (key ^ " digest")
        (List.assoc_opt key expected_recorder_digests)
        (Some digest))
    digests

let suite =
  ( "golden",
    [
      Alcotest.test_case "fig13 bit-identical at 200 nodes" `Slow
        (check_report "fig13" Ri_experiments.Fig13_schemes.run expected_fig13);
      Alcotest.test_case "fig18 bit-identical at 200 nodes" `Slow
        (check_report "fig18" Ri_experiments.Fig18_updates.run expected_fig18);
      Alcotest.test_case "faults bit-identical at 200 nodes" `Slow
        (check_report "faults" Ri_experiments.Fig_faults.run expected_faults);
      Alcotest.test_case "recovery bit-identical at 200 nodes" `Slow
        (check_report "recovery" Ri_experiments.Fig_recovery.run
           expected_recovery);
      Alcotest.test_case "faulty walk digest at 300 nodes" `Slow
        faulty_walk_digest;
      Alcotest.test_case "fig19 bit-identical at 200 nodes" `Slow
        (check_report "fig19" Ri_experiments.Fig19_update_cycles.run expected_fig19);
    ]
    @ List.map
        (fun ((body, _, _) as b) ->
          Alcotest.test_case ("recorder digests: " ^ body) `Slow (recorder_golden b))
        recorder_bodies )
