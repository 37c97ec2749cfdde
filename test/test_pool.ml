(* Domain pool and the parallel-execution guarantees the
   runner and setup cache build on: scheduling covers every index
   exactly once, exceptions propagate, a pool survives reuse, parallel
   runs are bit-identical to sequential ones, trials are the only items
   the pool runs, and cached trial setups reproduce fresh builds
   exactly. *)

open Ri_util
open Ri_sim

(* ------------------------------------------------------------------ *)
(* Pool mechanics.                                                     *)

let test_map_covers_all_indices () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun n ->
              let out = Pool.map pool ~n (fun i -> i * i) in
              Alcotest.(check int)
                (Printf.sprintf "length jobs=%d n=%d" jobs n)
                n (Array.length out);
              Array.iteri
                (fun i v ->
                  Alcotest.(check int)
                    (Printf.sprintf "slot %d jobs=%d" i jobs)
                    (i * i) v)
                out)
            [ 0; 1; 2; 7; 64 ]))
    [ 1; 2; 4 ]

exception Boom

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "raises at jobs=%d" jobs)
            Boom
            (fun () ->
              Pool.iter pool ~n:16 (fun i -> if i = 11 then raise Boom));
          (* The pool stays usable after a failed job. *)
          let out = Pool.map pool ~n:4 (fun i -> i + 1) in
          Alcotest.(check (array int)) "reusable after failure"
            [| 1; 2; 3; 4 |] out))
    [ 1; 3 ]

let test_pool_reuse () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "width" 4 (Pool.jobs pool);
      for round = 1 to 50 do
        let out = Pool.map pool ~n:round (fun i -> i) in
        Alcotest.(check int)
          (Printf.sprintf "round %d" round)
          round (Array.length out)
      done)

let test_shutdown_rejects () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.iter: pool is shut down") (fun () ->
      Pool.iter pool ~n:1 (fun _ -> ()))

(* A submission from inside a running job must not wait on the pool (the
   outer wave can never finish while its domain blocks) — it runs
   inline, and [in_job] reports the nesting. *)
let test_nested_iter_inline () =
  Alcotest.(check bool) "not in a job outside" false (Pool.in_job ());
  Pool.with_pool ~jobs:3 (fun pool ->
      let sums = Array.make 8 0 in
      let nested = Array.make 8 false in
      Pool.iter pool ~n:8 (fun i ->
          nested.(i) <- Pool.in_job ();
          let acc = ref 0 in
          Pool.iter pool ~n:5 (fun j -> acc := !acc + j);
          sums.(i) <- !acc);
      Array.iteri
        (fun i ok ->
          Alcotest.(check bool) (Printf.sprintf "slot %d saw in_job" i) true ok;
          Alcotest.(check int) (Printf.sprintf "slot %d inner sum" i) 10 sums.(i))
        nested);
  Alcotest.(check bool) "flag restored" false (Pool.in_job ())

(* ------------------------------------------------------------------ *)
(* Parallel runs are bit-identical to sequential ones.                 *)

let check_summary_eq label (a : Stats.summary) (b : Stats.summary) =
  Alcotest.(check (float 0.)) (label ^ " mean") a.Stats.mean b.Stats.mean;
  Alcotest.(check (float 0.)) (label ^ " ci95") a.Stats.ci95 b.Stats.ci95;
  Alcotest.(check (float 0.)) (label ^ " stddev") a.Stats.stddev b.Stats.stddev;
  Alcotest.(check int) (label ^ " n") a.Stats.n b.Stats.n;
  Alcotest.(check (float 0.)) (label ^ " min") a.Stats.min b.Stats.min;
  Alcotest.(check (float 0.)) (label ^ " max") a.Stats.max b.Stats.max

let small = Config.scaled Config.base ~num_nodes:300

let test_parallel_matches_sequential () =
  let spec = { Runner.min_trials = 3; max_trials = 9; target_rel_error = 0.05 } in
  let run_with jobs cfg kind =
    Pool.with_pool ~jobs (fun pool ->
        Runner.run ~pool spec (fun ~trial ->
            match kind with
            | `Query -> float_of_int (Trial.run_query cfg ~trial).Trial.messages
            | `Update ->
                float_of_int
                  (Trial.run_update cfg ~trial).Trial.update_messages))
  in
  List.iter
    (fun (name, search, kind) ->
      let cfg = Config.with_search small search in
      let seq = run_with 1 cfg kind in
      let par = run_with 4 cfg kind in
      check_summary_eq name seq par)
    [
      ("eri query", Config.Ri (Config.eri small), `Query);
      ("cri update", Config.Ri Config.cri, `Update);
      ("no-ri query", Config.No_ri, `Query);
    ]

(* ------------------------------------------------------------------ *)
(* Setup cache: cached builds must be indistinguishable from fresh.    *)

let test_cache_matches_fresh () =
  let was = Setup_cache.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Setup_cache.set_enabled was;
      Setup_cache.clear ())
    (fun () ->
      (* Sweep cells that share the overlay and content draw: same
         (seed, trial) under different search schemes and stop
         conditions, as the experiments do. *)
      let cells =
        [
          Config.with_search small (Config.Ri (Config.eri small));
          Config.with_search small (Config.Ri Config.cri);
          Config.with_search
            { small with Config.stop_condition = 50 }
            (Config.Ri Config.cri);
          Config.with_search
            { small with Config.compression_ratio = 0.8 }
            (Config.Ri (Config.eri small));
        ]
      in
      let metrics enabled =
        Setup_cache.set_enabled enabled;
        Setup_cache.clear ();
        List.concat_map
          (fun cfg ->
            List.map
              (fun trial ->
                let q = Trial.run_query cfg ~trial in
                let u = Trial.run_update cfg ~trial in
                (q.Trial.messages, q.Trial.found, q.Trial.nodes_visited,
                 u.Trial.update_messages))
              [ 0; 1; 2 ])
          cells
      in
      let fresh = metrics false in
      let cached = metrics true in
      List.iteri
        (fun i ((qm, qf, qv, um), (qm', qf', qv', um')) ->
          let lbl fmt = Printf.sprintf "cell %d %s" i fmt in
          Alcotest.(check int) (lbl "messages") qm qm';
          Alcotest.(check int) (lbl "found") qf qf';
          Alcotest.(check int) (lbl "visited") qv qv';
          Alcotest.(check int) (lbl "update messages") um um')
        (List.combine fresh cached);
      (* The sweep above really exercised the cache: 4 cells x 3 trials
         with shared (seed, trial) keys must hit after the first cell. *)
      let s = Setup_cache.stats () in
      Alcotest.(check bool) "graph hits happened" true (s.Setup_cache.graph_hits > 0);
      Alcotest.(check bool) "content hits happened" true
        (s.Setup_cache.content_hits > 0))

(* ------------------------------------------------------------------ *)
(* A top-level trial is the same whatever the pool width.              *)

(* One Int64 over every local summary and RI row of the network
   (FNV-style over IEEE bit patterns), in deterministic node/peer
   order: two networks fingerprint equal only if their entire routing
   state is bit-identical. *)
let net_fingerprint net =
  let open Ri_p2p in
  let h = ref 0xcbf29ce484222325L in
  let mix bits = h := Int64.mul (Int64.logxor !h bits) 0x100000001b3L in
  let mix_f v = mix (Int64.bits_of_float v) in
  let mix_summary s =
    mix_f s.Ri_content.Summary.total;
    Array.iter mix_f s.Ri_content.Summary.by_topic
  in
  for v = 0 to Network.size net - 1 do
    mix (Int64.of_int v);
    mix_summary (Network.local_summary net v);
    if Network.has_ri net then begin
      let ri = Network.ri net v in
      List.iter
        (fun peer ->
          mix (Int64.of_int peer);
          match Ri_core.Scheme.row ri ~peer with
          | None -> ()
          | Some (Ri_core.Scheme.Vector s) -> mix_summary s
          | Some (Ri_core.Scheme.Hop_vector rows) -> Array.iter mix_summary rows)
        (List.sort compare (Ri_core.Scheme.peers ri))
    end
  done;
  !h

let with_global_jobs jobs f =
  let prev = Pool.jobs (Pool.global ()) in
  Pool.set_global_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_global_jobs prev) f

(* An update trial run from the top level, outside any pool item, must
   leave the network and the wave counters exactly where they are at
   width 1. *)
let test_top_level_wave_width_invariant () =
  List.iter
    (fun (name, search) ->
      let cfg = Config.with_search small search in
      let run jobs =
        with_global_jobs jobs (fun () ->
            Setup_cache.clear ();
            let setup = Trial.build ~purpose:Trial.For_update cfg ~trial:2 in
            let m = Trial.run_update_on cfg setup in
            (m, net_fingerprint setup.Trial.network))
      in
      let m1, f1 = run 1 in
      let m4, f4 = run 4 in
      Alcotest.(check int)
        (name ^ " messages") m1.Trial.update_messages m4.Trial.update_messages;
      Alcotest.(check int)
        (name ^ " wire bytes") m1.Trial.update_wire_bytes
        m4.Trial.update_wire_bytes;
      Alcotest.(check int64) (name ^ " network state") f1 f4)
    [ ("cri", Config.Ri Config.cri); ("eri", Config.Ri (Config.eri small)) ]

(* A faulty trial — drift waves, lossy deliveries, repair — is
   width-invariant too. *)
let test_faulty_trial_width_invariant () =
  let fault =
    {
      Ri_p2p.Fault.none with
      Ri_p2p.Fault.update_loss = 0.3;
      drift = 0.2;
      crash = 0.05;
    }
  in
  let cfg =
    { (Config.with_search small (Config.Ri Config.cri)) with Config.fault }
  in
  let run jobs =
    with_global_jobs jobs (fun () ->
        Setup_cache.clear ();
        Trial.run_query_faulty cfg ~trial:3)
  in
  let a = run 1 in
  let b = run 4 in
  Alcotest.(check int) "messages" a.Trial.f_query.Trial.messages
    b.Trial.f_query.Trial.messages;
  Alcotest.(check int) "found" a.Trial.f_query.Trial.found
    b.Trial.f_query.Trial.found;
  Alcotest.(check int) "drift messages" a.Trial.f_drift_messages
    b.Trial.f_drift_messages;
  Alcotest.(check int) "repair messages" a.Trial.f_repair_messages
    b.Trial.f_repair_messages

(* A build run from the top level produces the same network at every
   pool width. *)
let test_top_level_build_width_invariant () =
  List.iter
    (fun (name, purpose) ->
      let cfg = Config.with_search small (Config.Ri (Config.eri small)) in
      let build jobs =
        with_global_jobs jobs (fun () ->
            Setup_cache.clear ();
            let setup = Trial.build ~purpose cfg ~trial:1 in
            net_fingerprint setup.Trial.network)
      in
      Alcotest.(check int64) (name ^ " state") (build 1) (build 4))
    [ ("rooted", Trial.For_query); ("converged", Trial.For_update) ]

(* Only the runner and the traffic driver submit to the pool, one trial
   per item, so its item count is the number of trials run — whatever
   the width, and with every phase inside a trial left out. *)
let test_pool_items_are_trials () =
  let spec = { Runner.min_trials = 3; max_trials = 3; target_rel_error = 0.1 } in
  List.iter
    (fun jobs ->
      with_global_jobs jobs (fun () ->
          Pool.reset_stats (Pool.global ());
          Setup_cache.clear ();
          ignore
            (Runner.run spec (fun ~trial ->
                 float_of_int (Trial.run_query small ~trial).Trial.messages));
          Alcotest.(check int)
            (Printf.sprintf "items at width %d" jobs)
            3
            (Pool.stats (Pool.global ())).Pool.items))
    [ 1; 3 ]

(* ------------------------------------------------------------------ *)
(* The paired clean baseline is memoized in the setup cache: a fault    *)
(* report, its event log and its decisions must not depend on whether  *)
(* each baseline ran fresh or came from the table, nor on the pool     *)
(* width.                                                              *)

let fault_base = Config.scaled Config.base ~num_nodes:150

let fault_spec trials =
  { Runner.min_trials = trials; max_trials = trials; target_rel_error = 0.1 }

let with_cache enabled f =
  let was = Setup_cache.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Setup_cache.set_enabled was;
      Setup_cache.clear ())
    (fun () ->
      Setup_cache.set_enabled enabled;
      Setup_cache.clear ();
      f ())

let fault_reports () =
  let open Ri_experiments in
  let spec = fault_spec 2 in
  Report.to_string (Fig_faults.run ~base:fault_base ~spec)
  ^ Report.to_string (Fig_recovery.run ~base:fault_base ~spec)

(* The reports with the event log and the decisions recorded: the
   reports, the flat trace, the spans and the decision records. *)
let recorded_fault_reports () =
  let open Ri_obs in
  Span.clear ();
  Span.start [ Span.Events; Span.Decisions ];
  let reports = Fun.protect ~finally:Span.stop fault_reports in
  let views =
    [
      ("reports", reports);
      ("trace", Span.render_flat_jsonl ());
      ("spans", Span.render_jsonl ());
      ("decisions", Decision.render_jsonl ());
    ]
  in
  Span.clear ();
  views

let test_baseline_memo_reports () =
  let cached =
    with_cache true (fun () -> with_global_jobs 1 recorded_fault_reports)
  in
  let fresh =
    with_cache false (fun () -> with_global_jobs 1 recorded_fault_reports)
  in
  let wide = with_cache true (fun () -> with_global_jobs 4 fault_reports) in
  List.iter2
    (fun (view, fresh) (_, cached) ->
      Alcotest.(check bool) (view ^ " recorded") true (cached <> "");
      Alcotest.(check string) ("cache off = cache on: " ^ view) fresh cached)
    fresh cached;
  Alcotest.(check string) "jobs 4 = jobs 1" (List.assoc "reports" cached) wide

let test_baseline_memo_counts () =
  with_cache true (fun () ->
      let trials = 2 in
      ignore
        (Ri_experiments.Fig_faults.run ~base:fault_base ~spec:(fault_spec trials));
      (* 8 search groups x 5 loss levels per trial, but the clean spec
         keeps only the drift and the budget: the groups collapse to 5
         (search, budget) pairs — CRI, HRI, ERI and No-RI at 2N
         forwards, flooding unbounded. *)
      let counts () =
        let s = Setup_cache.stats () in
        (s.Setup_cache.baseline_hits, s.Setup_cache.baseline_misses)
      in
      Alcotest.(check (pair int int))
        "hits, misses" (35 * trials, 5 * trials) (counts ());
      (* Any loss level of a CRI cell at the sweep's drift and budget
         shares the sweep's baseline; after [clear] it runs again. *)
      let cfg =
        {
          (Config.with_search fault_base (Config.Ri Config.cri)) with
          Config.fault =
            {
              Ri_p2p.Fault.none with
              Ri_p2p.Fault.update_loss = 0.3;
              drift = 0.75;
              query_budget = Some (2 * fault_base.Config.num_nodes);
            };
        }
      in
      ignore (Trial.run_query_faulty cfg ~trial:0);
      Alcotest.(check (pair int int))
        "an unswept loss level hits" ((35 * trials) + 1, 5 * trials) (counts ());
      Setup_cache.clear ();
      Alcotest.(check (pair int int)) "cleared stats" (0, 0) (counts ());
      ignore (Trial.run_query_faulty cfg ~trial:0);
      Alcotest.(check (pair int int)) "recomputed after clear" (0, 1) (counts ()))

let test_baseline_table_contract () =
  let key =
    { Setup_cache.b_trial = 3; b_config = Config.scaled Config.base ~num_nodes:50 }
  in
  let calls = ref 0 in
  let compute () =
    incr calls;
    17
  in
  with_cache true (fun () ->
      Alcotest.(check int) "miss computes" 17 (Setup_cache.baseline key compute);
      Alcotest.(check int) "hit returns the value" 17
        (Setup_cache.baseline key (fun () -> Alcotest.fail "recomputed on a hit"));
      Alcotest.(check int) "computed once" 1 !calls;
      Setup_cache.clear ();
      ignore (Setup_cache.baseline key compute);
      Alcotest.(check int) "clear drops the entry" 2 !calls);
  with_cache false (fun () ->
      ignore (Setup_cache.baseline key compute);
      ignore (Setup_cache.baseline key compute);
      Alcotest.(check int) "disabled cache always computes" 4 !calls;
      let s = Setup_cache.stats () in
      Alcotest.(check (pair int int))
        "disabled cache counts nothing" (0, 0)
        (s.Setup_cache.baseline_hits, s.Setup_cache.baseline_misses))

let suite =
  ( "pool-and-parallelism",
    [
      Alcotest.test_case "map covers all indices" `Quick test_map_covers_all_indices;
      Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
      Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
      Alcotest.test_case "shutdown rejects submissions" `Quick test_shutdown_rejects;
      Alcotest.test_case "nested iter runs inline" `Quick test_nested_iter_inline;
      Alcotest.test_case "parallel = sequential (bit-identical)" `Quick
        test_parallel_matches_sequential;
      Alcotest.test_case "cached setups match fresh builds" `Quick
        test_cache_matches_fresh;
      Alcotest.test_case "top-level wave invariant under pool width" `Quick
        test_top_level_wave_width_invariant;
      Alcotest.test_case "faulty trial invariant under pool width" `Quick
        test_faulty_trial_width_invariant;
      Alcotest.test_case "top-level build invariant under pool width" `Quick
        test_top_level_build_width_invariant;
      Alcotest.test_case "pool items = trials run" `Quick
        test_pool_items_are_trials;
      Alcotest.test_case "baseline memo: reports cache- and width-invariant"
        `Slow test_baseline_memo_reports;
      Alcotest.test_case "baseline memo: one run per (search, budget, trial)"
        `Quick test_baseline_memo_counts;
      Alcotest.test_case "baseline memo: table contract" `Quick
        test_baseline_table_contract;
    ] )
