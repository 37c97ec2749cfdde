(* Query processing: the Figure 7 algorithm, the No-RI baseline and
   flooding, on hand-built networks with known answers. *)

open Ri_util
open Ri_content
open Ri_core
open Ri_topology
open Ri_p2p

let universe = Topic.make 2

(* A network whose ground truth we control: node [v] holds
   [matches.(v)] documents answering the (single-topic) query, and the
   summaries reflect exactly that. *)
let net_of ?scheme ?cycle_policy ?mode ~edges ~matches () =
  let n = Array.length matches in
  let graph = Graph.of_edges ~n edges in
  let content =
    {
      Network.summary =
        (fun v -> Summary.of_counts ~total:matches.(v) ~by_topic:[| matches.(v); 0 |]);
      count_matching = (fun v _ -> matches.(v));
    }
  in
  Network.create ~graph ~content ?scheme ?cycle_policy ?mode ()

let query stop = Workload.query ~topics:[ 0 ] ~stop

(* Figure 2/3 overlay (A..J = 0..9), documents on the D-I-J side. *)
let paper_edges =
  [ (0, 1); (0, 2); (0, 3); (1, 4); (1, 5); (2, 6); (6, 7); (3, 8); (3, 9) ]

let test_ri_query_follows_goodness () =
  (* A's best path for this query is D (45 docs); D's best child is I. *)
  let matches = [| 1; 0; 0; 45; 0; 0; 0; 0; 25; 8 |] in
  let net = net_of ~scheme:Scheme.Cri_kind ~edges:paper_edges ~matches () in
  let o = Query.run net ~origin:0 ~query:(query 50) ~forwarding:Query.Ri_guided in
  Alcotest.(check bool) "satisfied" true o.Query.satisfied;
  Alcotest.(check int) "found = 1 + 45 + 25" 71 o.Query.found;
  (* Route: A -> D -> I, two forwards, no returns needed. *)
  Alcotest.(check int) "forwards" 2 o.Query.counters.Message.query_forwards;
  Alcotest.(check int) "returns" 0 o.Query.counters.Message.query_returns;
  Alcotest.(check int) "result messages from A, D, I" 3
    o.Query.counters.Message.result_messages;
  Alcotest.(check int) "visited" 3 o.Query.nodes_visited

let test_ri_query_backtracks () =
  (* I alone cannot satisfy; the query returns to D and continues to J
     ("it returns the query to D which forwards it to its best next
     neighbor J", Section 4.1). *)
  let matches = [| 0; 0; 0; 0; 0; 0; 0; 0; 25; 8 |] in
  let net = net_of ~scheme:Scheme.Cri_kind ~edges:paper_edges ~matches () in
  let o = Query.run net ~origin:0 ~query:(query 30) ~forwarding:Query.Ri_guided in
  Alcotest.(check bool) "satisfied" true o.Query.satisfied;
  Alcotest.(check int) "found" 33 o.Query.found;
  (* A->D, D->I, I returns, D->J. *)
  Alcotest.(check int) "forwards" 3 o.Query.counters.Message.query_forwards;
  Alcotest.(check int) "returns" 1 o.Query.counters.Message.query_returns

let test_unsatisfiable_query_visits_everything () =
  let matches = Array.make 10 0 in
  let net = net_of ~scheme:Scheme.Cri_kind ~edges:paper_edges ~matches () in
  let o = Query.run net ~origin:0 ~query:(query 5) ~forwarding:Query.Ri_guided in
  Alcotest.(check bool) "unsatisfied" false o.Query.satisfied;
  Alcotest.(check int) "found nothing" 0 o.Query.found;
  Alcotest.(check int) "visited all" 10 o.Query.nodes_visited;
  (* Every edge crossed forward once and returned once, except that the
     origin does not return to anyone. *)
  Alcotest.(check int) "forwards = edges" 9 o.Query.counters.Message.query_forwards;
  Alcotest.(check int) "returns = edges" 9 o.Query.counters.Message.query_returns

let test_stop_at_origin () =
  let matches = [| 10; 0; 0 |] in
  let net = net_of ~scheme:Scheme.Cri_kind ~edges:[ (0, 1); (1, 2) ] ~matches () in
  let o = Query.run net ~origin:0 ~query:(query 10) ~forwarding:Query.Ri_guided in
  Alcotest.(check bool) "satisfied locally" true o.Query.satisfied;
  Alcotest.(check int) "no forwards" 0 o.Query.counters.Message.query_forwards;
  Alcotest.(check int) "one result message" 1 o.Query.counters.Message.result_messages

let test_random_walk_terminates_and_finds_all () =
  let matches = [| 0; 3; 0; 2; 0; 1; 0; 4; 0; 1 |] in
  let net = net_of ~edges:paper_edges ~matches () in
  let rng = Prng.create 5 in
  let o =
    Query.run ~rng net ~origin:0 ~query:(query 11) ~forwarding:Query.Random_walk
  in
  Alcotest.(check bool) "satisfied" true o.Query.satisfied;
  Alcotest.(check int) "found everything" 11 o.Query.found

let test_ri_guided_needs_ri () =
  let net = net_of ~edges:[ (0, 1) ] ~matches:[| 0; 0 |] () in
  Alcotest.check_raises "needs RI"
    (Invalid_argument "Query.run: Ri_guided needs a network with routing indices")
    (fun () ->
      ignore (Query.run net ~origin:0 ~query:(query 1) ~forwarding:Query.Ri_guided))

let test_origin_range () =
  let net = net_of ~edges:[ (0, 1) ] ~matches:[| 0; 0 |] () in
  Alcotest.check_raises "origin" (Invalid_argument "Query.run: origin out of range")
    (fun () ->
      ignore (Query.run net ~origin:7 ~query:(query 1) ~forwarding:Query.Random_walk))

let test_detect_policy_bounces_revisits () =
  (* Diamond 0-1, 0-2, 1-3, 2-3 plus a tail 3-4 holding the documents.
     Rooted at 0, node 3 is reachable through both 1 and 2; after
     exhausting the first path the query crosses the second parent and
     bounces off the visited node. *)
  let matches = [| 0; 0; 0; 0; 9 |] in
  let edges = [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ] in
  let net =
    net_of ~scheme:Scheme.Cri_kind ~cycle_policy:Network.Detect_recover
      ~mode:(Network.Rooted 0) ~edges ~matches ()
  in
  let o = Query.run net ~origin:0 ~query:(query 20) ~forwarding:Query.Ri_guided in
  Alcotest.(check int) "found the tail docs once" 9 o.Query.found;
  Alcotest.(check bool) "revisit cost appears" true
    (o.Query.counters.Message.query_forwards > o.Query.nodes_visited - 1)

let test_results_counted_once_under_noop () =
  let matches = [| 0; 0; 0; 7; 0 |] in
  let edges = [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ] in
  let net =
    net_of ~scheme:Scheme.Cri_kind ~cycle_policy:Network.No_op
      ~mode:(Network.Rooted 0) ~edges ~matches ()
  in
  let o = Query.run net ~origin:0 ~query:(query 20) ~forwarding:Query.Ri_guided in
  Alcotest.(check int) "7 docs counted once despite revisits" 7 o.Query.found

let test_flood_counts () =
  (* Flooding the Figure 3 tree: one forward per link = 9 messages, the
     paper's own count for this network. *)
  let matches = Array.make 10 0 in
  matches.(8) <- 5;
  let net = net_of ~edges:paper_edges ~matches () in
  let o = Query.flood net ~origin:0 ~query:(query 50) () in
  Alcotest.(check int) "forwards = 9" 9 o.Query.counters.Message.query_forwards;
  Alcotest.(check int) "everything explored" 10 o.Query.nodes_visited;
  Alcotest.(check int) "all results found" 5 o.Query.found

let test_flood_counts_duplicates_on_cycles () =
  (* On a triangle, the two non-origin nodes forward to each other:
     those duplicate deliveries are dropped but still cost messages. *)
  let net = net_of ~edges:[ (0, 1); (0, 2); (1, 2) ] ~matches:[| 0; 0; 0 |] () in
  let o = Query.flood net ~origin:0 ~query:(query 1) () in
  Alcotest.(check int) "2 + 2 duplicates" 4 o.Query.counters.Message.query_forwards;
  Alcotest.(check int) "three nodes processed" 3 o.Query.nodes_visited

let test_flood_ttl () =
  (* Path 0-1-2-3: TTL 1 reaches only node 1. *)
  let matches = [| 0; 2; 0; 7 |] in
  let net = net_of ~edges:[ (0, 1); (1, 2); (2, 3) ] ~matches () in
  let o = Query.flood net ~origin:0 ~query:(query 9) ~ttl:1 () in
  Alcotest.(check int) "only near result" 2 o.Query.found;
  Alcotest.(check int) "two nodes" 2 o.Query.nodes_visited;
  Alcotest.(check bool) "not satisfied" false o.Query.satisfied

let test_flood_ignores_stop_condition () =
  let matches = [| 5; 5; 5 |] in
  let net = net_of ~edges:[ (0, 1); (1, 2) ] ~matches () in
  let o = Query.flood net ~origin:0 ~query:(query 1) () in
  Alcotest.(check int) "collects everything anyway" 15 o.Query.found

let prop_ri_and_random_find_same_results_when_exhaustive =
  QCheck.Test.make
    ~name:"exhaustive RI and random searches find every result" ~count:40
    QCheck.(pair (int_range 2 40) (int_range 0 30))
    (fun (n, docs) ->
      let rng = Prng.create (n + (docs * 131)) in
      let graph = Tree_gen.random_labels rng ~n ~fanout:3 in
      let matches = Array.make n 0 in
      for _ = 1 to docs do
        let v = Prng.int rng n in
        matches.(v) <- matches.(v) + 1
      done;
      let content =
        {
          Network.summary =
            (fun v ->
              Summary.of_counts ~total:matches.(v) ~by_topic:[| matches.(v); 0 |]);
          count_matching = (fun v _ -> matches.(v));
        }
      in
      let net = Network.create ~graph ~content ~scheme:Scheme.Cri_kind () in
      let q = Workload.query ~topics:[ 0 ] ~stop:(docs + 1) in
      let ri = Query.run net ~origin:0 ~query:q ~forwarding:Query.Ri_guided in
      let rand = Query.run ~rng net ~origin:0 ~query:q ~forwarding:Query.Random_walk in
      ri.Query.found = docs && rand.Query.found = docs)

let prop_query_messages_bounded =
  QCheck.Test.make ~name:"query traffic is bounded by twice the links" ~count:40
    QCheck.(int_range 2 60)
    (fun n ->
      let rng = Prng.create n in
      let graph = Tree_gen.random_labels rng ~n ~fanout:4 in
      let matches = Array.make n 0 in
      let content =
        {
          Network.summary = (fun _ -> Summary.zero ~topics:2);
          count_matching = (fun v _ -> matches.(v));
        }
      in
      let net = Network.create ~graph ~content ~scheme:Scheme.Cri_kind () in
      let q = Workload.query ~topics:[ 0 ] ~stop:1 in
      let o = Query.run net ~origin:(n / 2) ~query:q ~forwarding:Query.Ri_guided in
      o.Query.counters.Message.query_forwards <= 2 * (n - 1)
      && o.Query.counters.Message.query_returns
         <= o.Query.counters.Message.query_forwards)

(* Replays one walk's events against its frame stack and checks every
   first forward, i.e. every [Forwarded] that is not a resend (a resend
   comes right after a [Timed_out] on the same link).  A first forward
   must leave the node whose frame is on top, and fewer than [cap]
   first forwards may have crossed its link before that frame opened.
   A forward lands unless the next event times it out; landing opens a
   frame at the receiver, except that a detect-and-recover walk bounces
   off a visited node.  A return pops the sender's frame, unless it is
   such a bounce.  With [~detect] a link also carries at most one first
   forward in all. *)
let first_forwards_ok ~detect ~origin events =
  let cap = if detect then 1 else 2 in
  let events = Array.of_list events in
  let last = Array.length events - 1 in
  let times_out i (sender, receiver) =
    i >= 0 && i <= last
    &&
    match events.(i) with
    | Query.Timed_out t -> t.sender = sender && t.receiver = receiver
    | _ -> false
  in
  let firsts = Hashtbl.create 256 in
  let visited = Hashtbl.create 256 in
  Hashtbl.replace visited origin ();
  let stack = ref [ (origin, 0) ] in
  let ok = ref true in
  Array.iteri
    (fun i e ->
      match e with
      | Query.Forwarded { sender; receiver } ->
          let link = (sender, receiver) in
          if not (times_out (i - 1) link) then begin
            let sent = Option.value ~default:[] (Hashtbl.find_opt firsts link) in
            (match !stack with
            | (node, opened) :: _ when node = sender ->
                if List.length (List.filter (fun j -> j < opened) sent) >= cap
                then ok := false
            | _ -> ok := false);
            if detect && sent <> [] then ok := false;
            Hashtbl.replace firsts link (i :: sent)
          end;
          if
            (not (times_out (i + 1) link))
            && not (detect && Hashtbl.mem visited receiver)
          then begin
            Hashtbl.replace visited receiver ();
            stack := (receiver, i + 1) :: !stack
          end
      | Query.Returned { sender; _ } -> (
          match !stack with
          | (node, _) :: rest when node = sender -> stack := rest
          | _ -> if not detect then ok := false)
      | _ -> ())
    events;
  !ok

(* Loss of query forwards plus a partition, with retries and stale-row
   fallback: timeouts, resends and give-ups all occur. *)
let loss_partition =
  {
    Fault.none with
    Fault.update_loss = 0.2;
    link_flap = 0.1;
    partition = 0.3;
    stale_after = Some 1;
    retries = 2;
  }

(* Why a detect-and-recover walk needs no per-link send count: a node
   opens at most one frame (a revisit bounces before ranking), so no
   directed link carries a second first forward in one walk.  Under
   no-op a node re-entered through a cycle opens another frame, and a
   frame offers a link only while fewer than two first forwards have
   crossed it; nested frames of one node can each still hold the link,
   so an exhaustive no-op walk sends up to ~20 first forwards across
   one link of these overlays.  Exhaustive walks on converged ERI
   overlays with cycles, with and without faults. *)
let prop_first_forwards_per_link =
  let open Ri_sim in
  QCheck.Test.make
    ~name:"first forwards per directed link stay within the policy cap"
    ~count:24
    QCheck.(
      quad (int_range 200 400) (int_range 0 10_000) (pair bool bool)
        (pair bool bool))
    (fun (n, seed, (power_law, detect), (ri_guided, faulty)) ->
      let base = Config.scaled { Config.base with Config.seed } ~num_nodes:n in
      let topology =
        if power_law then Config.Power_law_graph
        else Config.Tree_with_cycles { extra_links = n / 5 }
      in
      let cycle_policy =
        if detect then Network.Detect_recover else Network.No_op
      in
      let cfg =
        {
          (Config.with_search
             (Config.with_topology base topology)
             (Config.Ri (Config.eri base)))
          with
          Config.cycle_policy;
        }
      in
      let setup = Trial.build ~purpose:Trial.For_update cfg ~trial:0 in
      let origin = setup.Trial.origin in
      let plan =
        if faulty then
          Some
            (Fault.make loss_partition
               ~neighbors:(Network.neighbors setup.Trial.network)
               ~seed ~trial:0 ~nodes:n ~protect:[ origin ])
        else None
      in
      let events = ref [] in
      ignore
        (Query.run ?plan ~rng:(Prng.create seed)
           ~on_event:(fun e -> events := e :: !events)
           setup.Trial.network ~origin
           ~query:{ setup.Trial.query with Workload.stop = max_int }
           ~forwarding:(if ri_guided then Query.Ri_guided else Query.Random_walk));
      first_forwards_ok ~detect ~origin (List.rev !events))

let suite =
  ( "query",
    [
      Alcotest.test_case "RI query follows goodness" `Quick test_ri_query_follows_goodness;
      Alcotest.test_case "RI query backtracks" `Quick test_ri_query_backtracks;
      Alcotest.test_case "unsatisfiable visits everything" `Quick test_unsatisfiable_query_visits_everything;
      Alcotest.test_case "stop at origin" `Quick test_stop_at_origin;
      Alcotest.test_case "random walk exhaustive" `Quick test_random_walk_terminates_and_finds_all;
      Alcotest.test_case "RI-guided needs RI" `Quick test_ri_guided_needs_ri;
      Alcotest.test_case "origin range" `Quick test_origin_range;
      Alcotest.test_case "detect bounces revisits" `Quick test_detect_policy_bounces_revisits;
      Alcotest.test_case "results counted once (no-op)" `Quick test_results_counted_once_under_noop;
      Alcotest.test_case "flood counts (paper: 9 messages)" `Quick test_flood_counts;
      Alcotest.test_case "flood duplicate costs" `Quick test_flood_counts_duplicates_on_cycles;
      Alcotest.test_case "flood TTL" `Quick test_flood_ttl;
      Alcotest.test_case "flood ignores stop" `Quick test_flood_ignores_stop_condition;
      QCheck_alcotest.to_alcotest prop_ri_and_random_find_same_results_when_exhaustive;
      QCheck_alcotest.to_alcotest prop_query_messages_bounded;
      QCheck_alcotest.to_alcotest prop_first_forwards_per_link;
    ] )
