(* Simulator plumbing: configuration, trials, the convergence runner. *)

open Ri_util
open Ri_sim

let small = Config.scaled Config.base ~num_nodes:300

let test_base_matches_figure12 () =
  let b = Config.base in
  Alcotest.(check int) "NumNodes" 60000 b.Config.num_nodes;
  Alcotest.(check int) "F" 4 b.Config.fanout;
  Alcotest.(check (float 1e-9)) "o" (-2.2088) b.Config.outdegree_exponent;
  Alcotest.(check int) "QR" 3125 b.Config.query_results;
  Alcotest.(check int) "StopCondition" 10 b.Config.stop_condition;
  Alcotest.(check int) "H" 5 b.Config.horizon;
  Alcotest.(check (float 1e-9)) "A" 4. b.Config.eri_decay;
  Alcotest.(check (float 1e-9)) "c" 0. b.Config.compression_ratio;
  Alcotest.(check (float 1e-9)) "minUpdate" 0.01 b.Config.min_update;
  Alcotest.(check int) "query bytes" 250 b.Config.bytes.Ri_p2p.Message.query_bytes;
  Alcotest.(check int) "update bytes" 1000 b.Config.bytes.Ri_p2p.Message.update_bytes

let test_scaled_keeps_result_fraction () =
  let c = Config.scaled Config.base ~num_nodes:10000 in
  Alcotest.(check int) "QR fraction of 10000" 521 c.Config.query_results;
  Alcotest.(check int) "base itself is 5.2%" 3125
    (Config.scaled Config.base ~num_nodes:60000).Config.query_results

let test_scaled_links () =
  Alcotest.(check int) "identity at 60k" 1000
    (Config.scaled_links Config.base ~paper_links:1000);
  let at6k = Config.scaled Config.base ~num_nodes:6000 in
  Alcotest.(check int) "tenth" 100 (Config.scaled_links at6k ~paper_links:1000);
  Alcotest.(check int) "never zero" 1 (Config.scaled_links at6k ~paper_links:1);
  Alcotest.(check int) "zero stays zero" 0 (Config.scaled_links at6k ~paper_links:0)

let test_validate () =
  let check_err cfg =
    match Config.validate cfg with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "expected a validation error"
  in
  Alcotest.(check bool) "base valid" true (Config.validate Config.base = Ok ());
  check_err { Config.base with Config.num_nodes = 1 };
  check_err { Config.base with Config.stop_condition = 0 };
  check_err { Config.base with Config.compression_ratio = 1.2 };
  check_err
    {
      Config.base with
      Config.search = Config.Ri Config.cri;
      topology = Config.Tree_with_cycles { extra_links = 5 };
      cycle_policy = Ri_p2p.Network.No_op;
    };
  (* A 5-node tree leaves 6 pairs unlinked. *)
  let five links =
    Config.with_topology
      (Config.scaled Config.base ~num_nodes:5)
      (Config.Tree_with_cycles { extra_links = links })
  in
  Alcotest.(check bool) "6 links fit 5 nodes" true (Config.validate (five 6) = Ok ());
  check_err (five 7);
  check_err (five (-1))

let test_names () =
  Alcotest.(check string) "no-ri" "No-RI" (Config.search_name Config.No_ri);
  Alcotest.(check string) "cri" "CRI" (Config.search_name (Config.Ri Config.cri));
  Alcotest.(check string) "flood" "Flooding"
    (Config.search_name (Config.Flooding { ttl = None }));
  Alcotest.(check string) "tree" "Tree" (Config.topology_name Config.Tree);
  Alcotest.(check string) "powerlaw" "Powerlaw"
    (Config.topology_name Config.Power_law_graph)

let test_trial_determinism () =
  let m1 = Trial.run_query small ~trial:3 in
  let m2 = Trial.run_query small ~trial:3 in
  Alcotest.(check int) "same trial, same messages" m1.Trial.messages m2.Trial.messages;
  let m3 = Trial.run_query small ~trial:4 in
  Alcotest.(check bool) "different trials usually differ" true
    (m3.Trial.messages <> m1.Trial.messages || m3.Trial.found <> m1.Trial.found
    || m3.Trial.nodes_visited <> m1.Trial.nodes_visited
    || true (* determinism is the real assertion; this is informative *))

let test_query_metrics_consistency () =
  let m = Trial.run_query small ~trial:0 in
  Alcotest.(check int) "messages = forwards + returns + results"
    (m.Trial.forwards + m.Trial.returns + m.Trial.results)
    m.Trial.messages;
  Alcotest.(check bool) "satisfied implies enough found" true
    ((not m.Trial.satisfied) || m.Trial.found >= small.Config.stop_condition);
  Alcotest.(check bool) "bytes priced" true (m.Trial.bytes > 0.)

let test_all_searches_satisfy_small_query () =
  List.iter
    (fun search ->
      let cfg = Config.with_search small search in
      let m = Trial.run_query cfg ~trial:1 in
      Alcotest.(check bool)
        (Config.search_name search ^ " satisfied")
        true m.Trial.satisfied)
    [
      Config.Ri Config.cri;
      Config.Ri (Config.hri small);
      Config.Ri (Config.eri small);
      Config.No_ri;
      Config.Flooding { ttl = None };
    ]

let test_flooding_finds_all_results () =
  let cfg = Config.with_search small (Config.Flooding { ttl = None }) in
  let m = Trial.run_query cfg ~trial:2 in
  Alcotest.(check int) "all results" small.Config.query_results m.Trial.found

let test_update_trial_no_ri () =
  let cfg = Config.with_search small Config.No_ri in
  let m = Trial.run_update cfg ~trial:0 in
  Alcotest.(check int) "no index, no update traffic" 0 m.Trial.update_messages

let test_invalid_config_raises () =
  Alcotest.(check bool) "build rejects invalid configs" true
    (try
       ignore (Trial.build { small with Config.stop_condition = 0 } ~trial:0);
       false
     with Invalid_argument _ -> true)

(* Every small configuration [Config.validate] accepts runs a query and
   an update trial; every one it refuses fails in [Trial.build] with the
   refusal itself, before any generator can raise.

   An n-node tree has (n-1)(n-2)/2 absent pairs, and the refused link
   counts reach that capacity + 3 at every n.  The accepted ones stop at
   n, or at the capacity itself up to 8 nodes: without cycle detection
   an HRI wave floods every path up to its horizon, and its cost climbs
   with density (11,520 messages and a 663 MB heap on a complete 24-node
   graph). *)
let config_gen =
  let open QCheck.Gen in
  let* n = int_range 2 64 in
  let absent = (n - 1) * (n - 2) / 2 in
  let* topology =
    oneof
      [
        return Config.Tree;
        map
          (fun extra_links -> Config.Tree_with_cycles { extra_links })
          (oneof
             [
               int_range (-1) (min (absent + 3) n);
               oneofl ((if n <= 8 then [ absent ] else []) @ [ absent + 1; absent + 3 ]);
             ]);
        return Config.Power_law_graph;
      ]
  in
  let* stop_condition = int_range 0 12 in
  let* horizon = int_range 0 6 in
  let* compression_ratio = oneofl [ 0.; 0.3; 0.6; 0.9 ] in
  let* cycle_policy = oneofl [ Ri_p2p.Network.No_op; Ri_p2p.Network.Detect_recover ] in
  let* seed = int_range 0 999 in
  let cfg =
    {
      (Config.scaled Config.base ~num_nodes:n) with
      Config.topology;
      stop_condition;
      horizon;
      compression_ratio;
      cycle_policy;
      seed;
    }
  in
  let+ search =
    oneofl
      [
        Config.Ri Config.cri;
        Config.Ri (Config.hri cfg);
        Config.Ri (Config.eri cfg);
        Config.Ri (Config.hybrid cfg);
        Config.No_ri;
        Config.Flooding { ttl = None };
      ]
  in
  Config.with_search cfg search

let show_config cfg =
  Format.asprintf "%a%s" Config.pp cfg
    (match cfg.Config.topology with
    | Config.Tree_with_cycles { extra_links } -> Printf.sprintf " EL=%d" extra_links
    | Config.Tree | Config.Power_law_graph -> "")

let prop_valid_configs_run =
  QCheck.Test.make ~name:"a valid config runs; a refused one fails validation"
    ~count:1000
    (QCheck.make ~print:show_config config_gen)
    (fun cfg ->
      match Config.validate cfg with
      | Ok () ->
          ignore (Trial.run_query cfg ~trial:0);
          ignore (Trial.run_update cfg ~trial:0);
          true
      | Error msg -> (
          match Trial.build cfg ~trial:0 with
          | _ -> false
          | exception Invalid_argument raised -> raised = "Trial.build: " ^ msg))

let test_runner_stops_on_convergence () =
  let calls = ref 0 in
  let spec = { Runner.min_trials = 3; max_trials = 50; target_rel_error = 0.1 } in
  let s =
    Runner.run spec (fun ~trial:_ ->
        incr calls;
        42.)
  in
  Alcotest.(check int) "stopped at min_trials" 3 !calls;
  Alcotest.(check (float 1e-9)) "mean" 42. s.Stats.mean

let test_runner_respects_max_trials () =
  let calls = ref 0 in
  let spec = { Runner.min_trials = 2; max_trials = 7; target_rel_error = 0.0001 } in
  let rng = Prng.create 1 in
  let (_ : Stats.summary) =
    Runner.run spec (fun ~trial:_ ->
        incr calls;
        Prng.float rng 1000.)
  in
  Alcotest.(check int) "capped" 7 !calls

let test_runner_validation () =
  Alcotest.check_raises "bad bounds" (Invalid_argument "Runner.run: bad trial bounds")
    (fun () ->
      ignore
        (Runner.run
           { Runner.min_trials = 5; max_trials = 2; target_rel_error = 0.1 }
           (fun ~trial:_ -> 0.)))

let suite =
  ( "sim",
    [
      Alcotest.test_case "base config = figure 12" `Quick test_base_matches_figure12;
      Alcotest.test_case "scaled keeps 5.2%" `Quick test_scaled_keeps_result_fraction;
      Alcotest.test_case "scaled links" `Quick test_scaled_links;
      Alcotest.test_case "validate" `Quick test_validate;
      Alcotest.test_case "names" `Quick test_names;
      Alcotest.test_case "trial determinism" `Quick test_trial_determinism;
      Alcotest.test_case "query metrics consistency" `Quick test_query_metrics_consistency;
      Alcotest.test_case "all searches satisfy" `Quick test_all_searches_satisfy_small_query;
      Alcotest.test_case "flooding finds all" `Quick test_flooding_finds_all_results;
      Alcotest.test_case "no-RI update trial" `Quick test_update_trial_no_ri;
      Alcotest.test_case "invalid config raises" `Quick test_invalid_config_raises;
      QCheck_alcotest.to_alcotest prop_valid_configs_run;
      Alcotest.test_case "runner convergence" `Quick test_runner_stops_on_convergence;
      Alcotest.test_case "runner max trials" `Quick test_runner_respects_max_trials;
      Alcotest.test_case "runner validation" `Quick test_runner_validation;
    ] )
