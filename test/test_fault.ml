(* Fault plane: plan determinism, the staleness ledger, wave-level drop
   and delay behavior, query timeouts/retries/budget, and the strict
   no-op guarantee of an inert spec. *)

open Ri_content
open Ri_core
open Ri_topology
open Ri_p2p

let heavy =
  {
    Fault.none with
    Fault.update_loss = 0.4;
    update_delay = 0.2;
    delay_waves = 2;
    crash = 0.2;
    link_flap = 0.05;
    drift = 0.5;
    stale_after = Some 1;
    retries = 2;
    backoff = 1;
  }

let test_spec_validation () =
  Alcotest.(check bool) "none validates" true
    (Fault.validate Fault.none = Ok ());
  Alcotest.(check bool) "heavy validates" true (Fault.validate heavy = Ok ());
  Alcotest.(check bool) "loss > 1 rejected" true
    (Fault.validate { Fault.none with Fault.update_loss = 1.5 } <> Ok ());
  Alcotest.(check bool) "all nodes crashed rejected" true
    (Fault.validate { Fault.none with Fault.crash = 1.0 } <> Ok ());
  Alcotest.(check bool) "partition > 1 rejected" true
    (Fault.validate { Fault.none with Fault.partition = 1.5 } <> Ok ());
  Alcotest.(check bool) "full partition rejected" true
    (Fault.validate { Fault.none with Fault.partition = 1.0 } <> Ok ());
  Alcotest.(check bool) "negative heal_after rejected" true
    (Fault.validate { Fault.none with Fault.heal_after = Some (-1) } <> Ok ());
  Alcotest.(check bool) "none is inactive" false (Fault.active Fault.none);
  Alcotest.(check bool) "budget alone stays inactive" false
    (Fault.active { Fault.none with Fault.query_budget = Some 10 });
  Alcotest.(check bool) "partition alone is active" true
    (Fault.active { Fault.none with Fault.partition = 0.3 });
  Alcotest.(check bool) "heavy is active" true (Fault.active heavy)

let test_plan_determinism () =
  (* Two plans from the same (seed, trial) make identical draws; a
     different trial diverges. *)
  let mk () = Fault.make heavy ~seed:7 ~trial:3 ~nodes:200 ~protect:[ 0 ] in
  let a = mk () and b = mk () in
  Alcotest.(check int) "same kill count" (Fault.crashed a) (Fault.crashed b);
  for v = 0 to 199 do
    Alcotest.(check bool)
      (Printf.sprintf "same dead set at %d" v)
      (Fault.is_dead a v) (Fault.is_dead b v)
  done;
  let draws p =
    List.init 64 (fun _ -> (Fault.drop_update p, Fault.delay_update p, Fault.flap p))
  in
  Alcotest.(check bool) "same draw sequence" true (draws a = draws b);
  let c = Fault.make heavy ~seed:7 ~trial:4 ~nodes:200 ~protect:[ 0 ] in
  Alcotest.(check bool) "different trial diverges" true
    (draws a <> draws c
    || List.exists (fun v -> Fault.is_dead a v <> Fault.is_dead c v)
         (List.init 200 Fun.id))

let test_protected_nodes_survive () =
  let plan =
    Fault.make
      { Fault.none with Fault.crash = 0.5 }
      ~seed:11 ~trial:0 ~nodes:100 ~protect:[ 17; 42 ]
  in
  Alcotest.(check bool) "protected nodes alive" false
    (Fault.is_dead plan 17 || Fault.is_dead plan 42);
  Alcotest.(check bool) "some nodes died" true (Fault.crashed plan > 0)

let test_staleness_ledger () =
  let plan = Fault.make heavy ~seed:1 ~trial:0 ~nodes:10 ~protect:[ 0 ] in
  Alcotest.(check int) "no gap initially" 0 (Fault.missed plan ~at:1 ~peer:2);
  Fault.note_missed plan ~at:1 ~peer:2;
  Fault.note_missed plan ~at:1 ~peer:2;
  Alcotest.(check int) "two recorded misses" 2 (Fault.missed plan ~at:1 ~peer:2);
  Alcotest.(check bool) "beyond threshold 1 is stale" true
    (Fault.stale plan ~at:1 ~peer:2);
  (* The open gap taints exports toward everyone except the gapped row
     itself (that row is excluded from the export toward its peer). *)
  Alcotest.(check bool) "export toward third party tainted" true
    (Fault.tainted plan ~at:1 ~toward:3);
  Alcotest.(check bool) "export toward the gapped peer untainted" false
    (Fault.tainted plan ~at:1 ~toward:2);
  Fault.clear_missed plan ~at:1 ~peer:2;
  Alcotest.(check int) "healed" 0 (Fault.missed plan ~at:1 ~peer:2);
  Alcotest.(check bool) "no taint after healing" false
    (Fault.tainted plan ~at:1 ~toward:3)

let test_backoff_full_jitter () =
  (* Ticks are uniform in [0, backoff * 2^attempt]: bounded above by the
     doubling envelope, deterministic for identical plans (dedicated
     retry stream), and free when the base backoff is zero. *)
  let mk () = Fault.make heavy ~seed:1 ~trial:0 ~nodes:10 ~protect:[ 0 ] in
  let a = mk () and b = mk () in
  let draw plan = List.init 32 (fun k -> Fault.backoff_ticks plan ~attempt:(k mod 8)) in
  let ticks = draw a in
  Alcotest.(check (list int)) "identical plans draw identical jitter" ticks (draw b);
  List.iteri
    (fun k t ->
      let bound = heavy.Fault.backoff * (1 lsl (k mod 8)) in
      Alcotest.(check bool)
        (Printf.sprintf "tick %d within [0, %d]" k bound)
        true
        (t >= 0 && t <= bound))
    ticks;
  Alcotest.(check bool) "jitter actually varies" true
    (List.exists (fun t -> t <> List.hd ticks) ticks);
  let zero =
    Fault.make { heavy with Fault.backoff = 0 } ~seed:1 ~trial:0 ~nodes:10
      ~protect:[ 0 ]
  in
  Alcotest.(check (list int)) "zero base backoff means zero ticks"
    [ 0; 0; 0; 0 ]
    (List.init 4 (fun k -> Fault.backoff_ticks zero ~attempt:k))

(* A 7-node path: 0-1-2-...-6, one topic, one document per node. *)
let line_net n =
  let graph = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let content =
    {
      Network.summary = (fun _ -> Summary.of_counts ~total:1 ~by_topic:[| 1 |]);
      count_matching = (fun _ _ -> 1);
    }
  in
  Network.create ~graph ~content ~scheme:Scheme.Cri_kind ()

let rows_snapshot net =
  List.init (Network.size net) (fun v ->
      List.map
        (fun p -> (p, Scheme.row (Network.ri net v) ~peer:p))
        (Scheme.peers (Network.ri net v)))

let test_total_loss_freezes_rows () =
  (* With every update message lost, a local change reaches nobody. *)
  let net = line_net 7 in
  let before = rows_snapshot net in
  let plan =
    Fault.make
      { Fault.none with Fault.update_loss = 1.0 }
      ~seed:3 ~trial:0 ~nodes:7 ~protect:[ 0 ]
  in
  let counters = Message.create () in
  Update.local_change ~plan net ~origin:3
    ~summary:(Summary.of_counts ~total:50 ~by_topic:[| 50 |])
    ~counters;
  Alcotest.(check bool) "rows unchanged everywhere" true
    (rows_snapshot net = before);
  Alcotest.(check bool) "messages were sent (and lost)" true
    (counters.Message.update_messages > 0);
  Alcotest.(check bool) "drops counted" true
    ((Fault.stats plan).Fault.update_drops > 0);
  (* Both receivers recorded the gap. *)
  Alcotest.(check bool) "gaps recorded at the receivers" true
    (Fault.missed plan ~at:2 ~peer:3 > 0 && Fault.missed plan ~at:4 ~peer:3 > 0)

let test_delay_only_same_final_state () =
  (* Delays reorder the wave but every message eventually lands: the
     final rows match the fault-free run. *)
  let clean = line_net 7 in
  Update.local_change clean ~origin:3
    ~summary:(Summary.of_counts ~total:50 ~by_topic:[| 50 |])
    ~counters:(Message.create ());
  let delayed = line_net 7 in
  let plan =
    Fault.make
      { Fault.none with Fault.update_delay = 1.0; delay_waves = 3 }
      ~seed:3 ~trial:0 ~nodes:7 ~protect:[ 0 ]
  in
  Update.local_change ~plan delayed ~origin:3
    ~summary:(Summary.of_counts ~total:50 ~by_topic:[| 50 |])
    ~counters:(Message.create ());
  Alcotest.(check bool) "delays happened" true
    ((Fault.stats plan).Fault.update_delays > 0);
  Alcotest.(check bool) "same final rows as fault-free" true
    (rows_snapshot delayed = rows_snapshot clean)

let test_inert_plan_is_noop () =
  (* An all-zero spec behind a plan must leave the wave bit-for-bit
     identical to running without one. *)
  let with_plan = line_net 7 in
  let plan = Fault.make Fault.none ~seed:3 ~trial:0 ~nodes:7 ~protect:[ 0 ] in
  let c1 = Message.create () in
  Update.local_change ~plan with_plan ~origin:3
    ~summary:(Summary.of_counts ~total:50 ~by_topic:[| 50 |])
    ~counters:c1;
  let without = line_net 7 in
  let c2 = Message.create () in
  Update.local_change without ~origin:3
    ~summary:(Summary.of_counts ~total:50 ~by_topic:[| 50 |])
    ~counters:c2;
  Alcotest.(check bool) "identical rows" true
    (rows_snapshot with_plan = rows_snapshot without);
  Alcotest.(check int) "identical message count" c2.Message.update_messages
    c1.Message.update_messages

(* The query half of the same guarantee: behind an inert plan the walk
   — outcome, message events and decision records — is exactly the one
   run without a plan, for both forwarding modes, on a tree and a cyclic
   overlay, under both cycle policies. *)
let test_inert_plan_query_is_noop () =
  let open Ri_sim in
  let base =
    { (Config.scaled Config.base ~num_nodes:200) with Config.stop_condition = 20 }
  in
  let walk cfg ~forwarding ~inert =
    let setup = Trial.build cfg ~trial:1 in
    let plan =
      if inert then
        Some
          (Fault.make Fault.none ~seed:cfg.Config.seed ~trial:1
             ~nodes:cfg.Config.num_nodes ~protect:[ setup.Trial.origin ])
      else None
    in
    let events = ref [] in
    Ri_obs.Span.clear ();
    Ri_obs.Span.start [ Ri_obs.Span.Decisions ];
    let o =
      Fun.protect ~finally:Ri_obs.Span.stop (fun () ->
          Ri_obs.Span.with_trial ~trial:1 (fun decide ->
              Query.run
                ~on_event:(fun e -> events := e :: !events)
                ~decide ?plan ~rng:(Ri_util.Prng.create 9) setup.Trial.network
                ~origin:setup.Trial.origin ~query:setup.Trial.query ~forwarding))
    in
    let records = Ri_obs.Decision.records () in
    Ri_obs.Span.clear ();
    (o, List.rev !events, records)
  in
  List.iter
    (fun topology ->
      List.iter
        (fun cycle_policy ->
          let cfg =
            { (Config.with_topology base topology) with Config.cycle_policy }
          in
          List.iter
            (fun forwarding ->
              let id =
                Printf.sprintf "%s/%s/%s"
                  (Config.topology_name topology)
                  (match cycle_policy with
                  | Network.No_op -> "no-op"
                  | Network.Detect_recover -> "detect")
                  (match forwarding with
                  | Query.Ri_guided -> "ri"
                  | Query.Random_walk -> "random")
              in
              let o, events, records = walk cfg ~forwarding ~inert:false in
              let o', events', records' = walk cfg ~forwarding ~inert:true in
              Alcotest.(check bool) (id ^ " outcome") true (o = o');
              Alcotest.(check bool) (id ^ " events") true (events = events');
              Alcotest.(check bool)
                (id ^ " decision records")
                true
                (compare records records' = 0);
              Alcotest.(check bool) (id ^ " walk recorded") true (records <> []))
            Query.[ Ri_guided; Random_walk ])
        Network.[ No_op; Detect_recover ])
    [ Config.Tree; Config.Tree_with_cycles { extra_links = 20 } ]

let test_query_timeout_retry_detect () =
  (* Node 1 sits between the origin 0 and the rest of the line, then
     crash-stops.  The query times out retries+1 times, gives up,
     removes the row and records the death. *)
  let net = line_net 7 in
  let plan = Fault.make heavy ~seed:5 ~trial:0 ~nodes:7 ~protect:[ 0 ] in
  Churn.crash_stop net 1 ~plan;
  Alcotest.(check bool) "node 1 dead" true (Fault.is_dead plan 1);
  let q = Workload.query ~topics:[ 0 ] ~stop:5 in
  let o = Query.run ~plan net ~origin:0 ~query:q ~forwarding:Query.Ri_guided in
  let st = Fault.stats plan in
  Alcotest.(check int) "one timeout per attempt" (Fault.retries plan + 1)
    st.Fault.timeouts;
  Alcotest.(check int) "retries exhausted" (Fault.retries plan)
    st.Fault.retries_used;
  Alcotest.(check bool) "death learned at the origin" true
    (Fault.knows_dead plan ~at:0 ~dead:1);
  Alcotest.(check bool) "row for the corpse removed" true
    (Scheme.row (Network.ri net 0) ~peer:1 = None);
  (* The whole network sits behind the corpse: only local results. *)
  Alcotest.(check int) "only local results" 1 o.Query.found

let test_query_budget_stops () =
  let net = line_net 7 in
  let plan =
    Fault.make
      { Fault.none with Fault.query_budget = Some 2; link_flap = 0.0 }
      ~seed:5 ~trial:0 ~nodes:7 ~protect:[ 0 ]
  in
  let q = Workload.query ~topics:[ 0 ] ~stop:7 in
  let o = Query.run ~plan net ~origin:0 ~query:q ~forwarding:Query.Ri_guided in
  Alcotest.(check bool) "budget capped the walk" true
    (o.Query.counters.Message.query_forwards <= 2);
  Alcotest.(check bool) "stop recorded" true
    ((Fault.stats plan).Fault.budget_stops > 0)

let suite =
  ( "fault",
    [
      Alcotest.test_case "spec validation" `Quick test_spec_validation;
      Alcotest.test_case "plan determinism" `Quick test_plan_determinism;
      Alcotest.test_case "protected nodes survive" `Quick
        test_protected_nodes_survive;
      Alcotest.test_case "staleness ledger" `Quick test_staleness_ledger;
      Alcotest.test_case "full-jitter backoff" `Quick test_backoff_full_jitter;
      Alcotest.test_case "total loss freezes rows" `Quick
        test_total_loss_freezes_rows;
      Alcotest.test_case "delay-only reaches same state" `Quick
        test_delay_only_same_final_state;
      Alcotest.test_case "inert plan is a no-op" `Quick test_inert_plan_is_noop;
      Alcotest.test_case "inert plan leaves queries unchanged" `Quick
        test_inert_plan_query_is_noop;
      Alcotest.test_case "timeout, retry, detect" `Quick
        test_query_timeout_retry_detect;
      Alcotest.test_case "query budget stops" `Quick test_query_budget_stops;
    ] )
