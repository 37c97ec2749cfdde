(* Extensions the paper sketches: the hybrid CRI-HRI (Section 6.2),
   parallel forwarding (Section 3.1), cycle avoidance (Section 7) and
   update batching (Section 4.3). *)

open Ri_content
open Ri_core
open Ri_topology
open Ri_p2p

let s total by = Summary.of_counts ~total ~by_topic:by

let hri2 = Scheme.Hri_kind { horizon = 2; fanout = 3. }

let hybrid2 = Scheme.Hybrid_kind { horizon = 2; fanout = 3. }

(* ------------------------------------------------------------------ *)
(* Hybrid CRI-HRI.                                                     *)

let test_hybrid_row_shape () =
  (* Slots per row, read off the flat row layout. *)
  let row_length t = Rowstore.stride (Scheme.rowstore t) / (1 + Scheme.width t) in
  let t = Scheme.create hybrid2 ~width:1 ~local:(s 5 [| 5 |]) in
  Alcotest.(check bool) "has tail" true (Scheme.kind t = hybrid2);
  Alcotest.(check int) "row length = horizon + 1" 3 (row_length t);
  let plain = Scheme.create hri2 ~width:1 ~local:(s 5 [| 5 |]) in
  Alcotest.(check int) "plain row length" 2 (row_length plain)

let test_hybrid_never_forgets () =
  (* Chain a - b - c - d with horizon 2: the plain HRI loses a's
     documents at d (3 hops), the hybrid keeps them in the tail. *)
  let chain kind =
    let local = s 100 [| 100 |] in
    let zero = Summary.zero ~topics:1 in
    let a = Scheme.create kind ~width:1 ~local in
    let b = Scheme.create kind ~width:1 ~local:zero in
    Scheme.set_row b ~peer:0 (Scheme.export a ~exclude:None);
    let c = Scheme.create kind ~width:1 ~local:zero in
    Scheme.set_row c ~peer:1 (Scheme.export b ~exclude:None);
    let d = Scheme.create kind ~width:1 ~local:zero in
    Scheme.set_row d ~peer:2 (Scheme.export c ~exclude:None);
    Scheme.goodness d ~peer:2 ~query:[ 0 ]
  in
  Alcotest.(check (float 1e-9)) "plain HRI is blind" 0. (chain hri2);
  (* Hybrid: 100 docs in the tail, discounted at horizon+1 = 3 hops:
     100 / 3^2. *)
  Alcotest.(check (float 1e-6)) "hybrid sees the tail" (100. /. 9.)
    (chain hybrid2)

let test_hybrid_tail_accumulates () =
  (* The column crossing the horizon merges into the tail rather than
     replacing it. *)
  let local = s 10 [| 10 |] in
  let t = Scheme.create hybrid2 ~width:1 ~local in
  Scheme.set_row t ~peer:0
    (Scheme.Hop_vector [| s 1 [| 1 |]; s 2 [| 2 |]; s 40 [| 40 |] |]);
  let e =
    match Scheme.export t ~exclude:None with
    | Scheme.Hop_vector e -> e
    | Scheme.Vector _ -> Alcotest.fail "expected hops"
  in
  Alcotest.(check (float 1e-9)) "slot0 local" 10. e.(0).Summary.total;
  Alcotest.(check (float 1e-9)) "slot1 = old hop1" 1. e.(1).Summary.total;
  Alcotest.(check (float 1e-9)) "tail = old hop2 + old tail" 42.
    e.(2).Summary.total

let test_hybrid_through_scheme_and_network () =
  (* Converged hybrid network on the Figure 4/5 tree: total visibility
     equals CRI's even with horizon 1. *)
  let graph = Graph.of_edges ~n:6 [ (0, 1); (0, 2); (0, 3); (3, 4); (3, 5) ] in
  let locals =
    [| s 300 [| 30; 80; 0; 10 |]; s 100 [| 20; 0; 10; 30 |];
       s 1000 [| 0; 300; 0; 50 |]; s 200 [| 100; 0; 100; 150 |];
       s 50 [| 25; 0; 15; 50 |]; s 50 [| 15; 0; 25; 25 |] |]
  in
  let content =
    { Network.summary = (fun v -> locals.(v)); count_matching = (fun _ _ -> 0) }
  in
  let net =
    Network.create ~graph ~content
      ~scheme:(Scheme.Hybrid_kind { horizon = 1; fanout = 4. }) ()
  in
  match Scheme.row (Network.ri net 3) ~peer:0 with
  | Some (Scheme.Hop_vector r) ->
      let total = Array.fold_left (fun acc x -> acc +. x.Summary.total) 0. r in
      Alcotest.(check (float 1e-6)) "all 1400 docs visible" 1400. total;
      Alcotest.(check (float 1e-6)) "hop 1 = A local" 300. r.(0).Summary.total;
      Alcotest.(check (float 1e-6)) "tail = B + C" 1100. r.(1).Summary.total
  | _ -> Alcotest.fail "expected hop vector"

(* ------------------------------------------------------------------ *)
(* Parallel forwarding.                                                *)

let parallel_net () =
  (* Figure 2 overlay with documents in two separate subtrees. *)
  let edges = [ (0, 1); (0, 2); (0, 3); (1, 4); (1, 5); (2, 6); (6, 7); (3, 8); (3, 9) ] in
  let matches = [| 0; 0; 0; 0; 6; 0; 0; 0; 6; 0 |] in
  let graph = Graph.of_edges ~n:10 edges in
  let content =
    {
      Network.summary =
        (fun v -> Summary.of_counts ~total:matches.(v) ~by_topic:[| matches.(v) |]);
      count_matching = (fun v _ -> matches.(v));
    }
  in
  Network.create ~graph ~content ~scheme:Scheme.Cri_kind ()

let q stop = Workload.query ~topics:[ 0 ] ~stop

let test_parallel_finds_both_subtrees () =
  let net = parallel_net () in
  let o = Query.run_parallel net ~origin:0 ~query:(q 12) ~branch:2 in
  Alcotest.(check bool) "satisfied" true o.Query.p_satisfied;
  Alcotest.(check int) "both caches found" 12 o.Query.p_found;
  (* Both document holders sit two hops from the origin. *)
  Alcotest.(check int) "two rounds" 2 o.Query.p_rounds

let test_parallel_beats_sequential_rounds () =
  let net = parallel_net () in
  let seq = Query.run net ~origin:0 ~query:(q 12) ~forwarding:Query.Ri_guided in
  let par = Query.run_parallel net ~origin:0 ~query:(q 12) ~branch:3 in
  Alcotest.(check bool) "sequential serial chain longer than rounds" true
    (Query.messages seq > par.Query.p_rounds);
  Alcotest.(check int) "same results" seq.Query.found par.Query.p_found

let test_parallel_branch_one_no_backtrack () =
  let net = parallel_net () in
  let o = Query.run_parallel net ~origin:0 ~query:(q 12) ~branch:1 in
  (* One path only: it cannot gather both subtrees. *)
  Alcotest.(check bool) "single path insufficient" true (o.Query.p_found < 12)

let test_parallel_counts_duplicates () =
  (* Diamond: both depth-1 nodes forward to the shared child; the second
     delivery is dropped but paid for. *)
  let graph = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let matches = [| 0; 0; 0; 1 |] in
  let content =
    {
      Network.summary =
        (fun v -> Summary.of_counts ~total:matches.(v) ~by_topic:[| matches.(v) |]);
      count_matching = (fun v _ -> matches.(v));
    }
  in
  let net =
    Network.create ~graph ~content ~scheme:Scheme.Cri_kind
      ~mode:(Network.Rooted 0) ()
  in
  let o = Query.run_parallel net ~origin:0 ~query:(q 5) ~branch:2 in
  Alcotest.(check int) "found once" 1 o.Query.p_found;
  Alcotest.(check int) "4 forwards incl. duplicate" 4
    o.Query.p_counters.Message.query_forwards

let test_parallel_validation () =
  let net = parallel_net () in
  Alcotest.check_raises "branch 0"
    (Invalid_argument "Query.run_parallel: branch must be positive") (fun () ->
      ignore (Query.run_parallel net ~origin:0 ~query:(q 1) ~branch:0))

(* ------------------------------------------------------------------ *)
(* Cycle avoidance.                                                    *)

let test_cycle_avoidance () =
  let graph = Graph.of_edges ~n:4 [ (0, 1); (1, 2) ] in
  let content =
    {
      Network.summary = (fun v -> s (v + 1) [| v + 1 |]);
      count_matching = (fun _ _ -> 0);
    }
  in
  let net = Network.create ~graph ~content ~scheme:Scheme.Cri_kind () in
  let counters = Message.create () in
  (* 0 and 2 are already connected through 1: refused. *)
  Alcotest.(check bool) "cycle refused" true
    (Churn.connect_avoiding_cycles net 0 2 ~counters = Churn.Rejected_cycle);
  Alcotest.(check bool) "no link created" false (Network.has_link net 0 2);
  Alcotest.(check int) "probe paid" 1 counters.Message.update_messages;
  (* Node 3 is isolated: allowed. *)
  Alcotest.(check bool) "fresh node accepted" true
    (Churn.connect_avoiding_cycles net 3 0 ~counters = Churn.Connected);
  Alcotest.(check bool) "link created" true (Network.has_link net 3 0)

(* ------------------------------------------------------------------ *)
(* Update batching.                                                    *)

let batch_net () =
  let graph = Graph.of_edges ~n:8 (List.init 7 (fun i -> (i, i + 1))) in
  let content =
    {
      Network.summary = (fun _ -> s 100 [| 100 |]);
      count_matching = (fun _ _ -> 0);
    }
  in
  Network.create ~graph ~content ~scheme:Scheme.Cri_kind ()

let test_batcher_single_wave () =
  let net = batch_net () in
  let batcher = Update.Batcher.create net ~origin:0 in
  for docs = 1 to 5 do
    Update.Batcher.note_local_change batcher
      (s (100 + (docs * 10)) [| 100 + (docs * 10) |])
  done;
  Alcotest.(check int) "pending" 5 (Update.Batcher.pending batcher);
  let counters = Message.create () in
  Update.Batcher.flush batcher ~counters;
  Alcotest.(check int) "one wave over the path" 7 counters.Message.update_messages;
  Alcotest.(check int) "drained" 0 (Update.Batcher.pending batcher);
  (* The final state won: node 7's view includes all 50 extra docs. *)
  (match Scheme.row (Network.ri net 7) ~peer:6 with
  | Some (Scheme.Vector r) ->
      Alcotest.(check (float 1e-6)) "latest state propagated" 750. r.Summary.total
  | _ -> Alcotest.fail "missing row");
  (* Idempotent flush. *)
  Message.reset counters;
  Update.Batcher.flush batcher ~counters;
  Alcotest.(check int) "empty flush free" 0 counters.Message.update_messages

let test_batcher_cheaper_than_eager () =
  let eager =
    let net = batch_net () in
    let counters = Message.create () in
    for docs = 1 to 5 do
      Update.local_change net ~origin:0
        ~summary:(s (100 + (docs * 10)) [| 100 + (docs * 10) |])
        ~counters
    done;
    counters.Message.update_messages
  in
  let batched =
    let net = batch_net () in
    let counters = Message.create () in
    let batcher = Update.Batcher.create net ~origin:0 in
    for docs = 1 to 5 do
      Update.Batcher.note_local_change batcher
        (s (100 + (docs * 10)) [| 100 + (docs * 10) |])
    done;
    Update.Batcher.flush batcher ~counters;
    counters.Message.update_messages
  in
  Alcotest.(check bool) "batching saves messages" true (batched < eager)

(* ------------------------------------------------------------------ *)
(* Perturbed (Gaussian error) trials.                                  *)

let test_perturbed_trial_runs () =
  let cfg =
    Ri_sim.Config.scaled
      (Ri_sim.Config.with_search Ri_sim.Config.base
         (Ri_sim.Config.Ri Ri_sim.Config.cri))
      ~num_nodes:300
  in
  let m =
    Ri_sim.Trial.run_query_perturbed cfg ~relative_stddev:0.3
      ~kind:Compression.Overcount ~trial:0
  in
  Alcotest.(check bool) "still terminates and satisfies" true
    m.Ri_sim.Trial.satisfied;
  (* The error model must actually change the index state: compare the
     same trial's RIs with and without perturbation. *)
  let exact = Ri_sim.Trial.build ~purpose:Ri_sim.Trial.For_query cfg ~trial:0 in
  let noisy =
    Ri_sim.Trial.build ~purpose:Ri_sim.Trial.For_query
      ~perturb:(0.3, Compression.Overcount) cfg ~trial:0
  in
  let row_total setup =
    let net = setup.Ri_sim.Trial.network in
    let ri = Network.ri net setup.Ri_sim.Trial.origin in
    List.fold_left
      (fun acc peer ->
        match Scheme.row ri ~peer with
        | Some p -> acc +. Scheme.payload_total p
        | None -> acc)
      0. (Scheme.peers ri)
  in
  Alcotest.(check bool) "error model inflates overcounting rows" true
    (row_total noisy > row_total exact)

(* ------------------------------------------------------------------ *)
(* Query event tracing.                                                *)

let test_query_trace_matches_counters () =
  let net = parallel_net () in
  let events = ref [] in
  let o =
    Query.run ~on_event:(fun e -> events := e :: !events) net ~origin:0
      ~query:(q 12) ~forwarding:Query.Ri_guided
  in
  let events = List.rev !events in
  let count p = List.length (List.filter p events) in
  Alcotest.(check int) "forward events"
    o.Query.counters.Message.query_forwards
    (count (function Query.Forwarded _ -> true | _ -> false));
  Alcotest.(check int) "return events"
    o.Query.counters.Message.query_returns
    (count (function Query.Returned _ -> true | _ -> false));
  Alcotest.(check int) "result events"
    o.Query.counters.Message.result_messages
    (count (function Query.Results _ -> true | _ -> false));
  (* Results reported through the trace sum to the outcome. *)
  let traced_found =
    List.fold_left
      (fun acc -> function Query.Results { count; _ } -> acc + count | _ -> acc)
      0 events
  in
  Alcotest.(check int) "traced results" o.Query.found traced_found;
  (* The first movement is a forward out of the origin. *)
  (match
     List.find_opt (function Query.Forwarded _ -> true | _ -> false) events
   with
  | Some (Query.Forwarded { sender; _ }) ->
      Alcotest.(check int) "starts at the origin" 0 sender
  | _ -> Alcotest.fail "no forward event")

(* ------------------------------------------------------------------ *)
(* Storage accounting (Section 4.1).                                   *)

let test_storage_entries () =
  (* 4 topics, 3 neighbors: (3+1) rows x (1+4) counters = 20 for the
     flat schemes; x horizon for HRI; x (horizon+1) for the hybrid. *)
  Alcotest.(check int) "CRI" 20
    (Scheme.storage_entries Scheme.Cri_kind ~width:4 ~neighbors:3);
  Alcotest.(check int) "ERI" 20
    (Scheme.storage_entries (Scheme.Eri_kind { fanout = 4. }) ~width:4 ~neighbors:3);
  Alcotest.(check int) "HRI" 100
    (Scheme.storage_entries
       (Scheme.Hri_kind { horizon = 5; fanout = 4. })
       ~width:4 ~neighbors:3);
  Alcotest.(check int) "Hybrid" 120
    (Scheme.storage_entries
       (Scheme.Hybrid_kind { horizon = 5; fanout = 4. })
       ~width:4 ~neighbors:3);
  Alcotest.check_raises "bad dims"
    (Invalid_argument "Scheme.storage_entries: bad dimensions") (fun () ->
      ignore (Scheme.storage_entries Scheme.Cri_kind ~width:0 ~neighbors:1))

let suite =
  ( "extensions",
    [
      Alcotest.test_case "hybrid row shape" `Quick test_hybrid_row_shape;
      Alcotest.test_case "hybrid never forgets" `Quick test_hybrid_never_forgets;
      Alcotest.test_case "hybrid tail accumulates" `Quick test_hybrid_tail_accumulates;
      Alcotest.test_case "hybrid network build" `Quick test_hybrid_through_scheme_and_network;
      Alcotest.test_case "parallel finds both subtrees" `Quick test_parallel_finds_both_subtrees;
      Alcotest.test_case "parallel beats sequential rounds" `Quick test_parallel_beats_sequential_rounds;
      Alcotest.test_case "parallel branch-1 no backtrack" `Quick test_parallel_branch_one_no_backtrack;
      Alcotest.test_case "parallel pays for duplicates" `Quick test_parallel_counts_duplicates;
      Alcotest.test_case "parallel validation" `Quick test_parallel_validation;
      Alcotest.test_case "cycle avoidance" `Quick test_cycle_avoidance;
      Alcotest.test_case "batcher single wave" `Quick test_batcher_single_wave;
      Alcotest.test_case "batcher cheaper than eager" `Quick test_batcher_cheaper_than_eager;
      Alcotest.test_case "perturbed trials" `Quick test_perturbed_trial_runs;
      Alcotest.test_case "query trace" `Quick test_query_trace_matches_counters;
      Alcotest.test_case "storage entries" `Quick test_storage_entries;
    ] )
