(* Document-result placement: QR conservation, 80/20 bias, exact ground
   truth. *)

open Ri_util
open Ri_content

let universe = Topic.make 10

let distribute ?(seed = 1) ?(n = 500) ?(results = 100) ?(distribution = Placement.Uniform)
    ?(query = [ 0 ]) ?background () =
  Placement.distribute (Prng.create seed) ~universe ~n ~query_topics:query
    ~results ~distribution ?background_per_node:background ()

let test_conservation () =
  let p = distribute () in
  Alcotest.(check int) "QR preserved" 100
    (Array.fold_left ( + ) 0 p.Placement.matches);
  Alcotest.(check int) "total field" 100 p.Placement.total_matches

let test_summary_consistency () =
  (* With a single-topic query, background documents avoid that topic
     entirely, so the per-node count on it equals the match count. *)
  let p = distribute ~background:3.0 () in
  Array.iteri
    (fun v m ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "node %d query-topic count" v)
        (float_of_int m)
        (Summary.get (Placement.node_summary p v) 0))
    p.Placement.matches

let test_totals_include_background () =
  let p = distribute ~background:2.0 ~results:0 () in
  let total =
    Array.fold_left (fun acc s -> acc +. s.Summary.total) 0. p.Placement.summaries
  in
  (* 500 nodes x ~2 docs. *)
  Alcotest.(check bool) "background present" true (total > 500. && total < 1500.)

let test_biased_distribution () =
  let p =
    distribute ~n:1000 ~results:10_000 ~distribution:Placement.eighty_twenty ()
  in
  (* The top 20% of nodes by match count should hold about 80% of the
     results. *)
  let sorted = Array.copy p.Placement.matches in
  Array.sort (fun a b -> compare b a) sorted;
  let top = Array.sub sorted 0 200 in
  let share =
    float_of_int (Array.fold_left ( + ) 0 top) /. float_of_int 10_000
  in
  Alcotest.(check bool) "top quintile holds ~80%" true
    (share > 0.75 && share < 0.88)

let test_uniform_spread () =
  let p = distribute ~n:1000 ~results:10_000 () in
  let sorted = Array.copy p.Placement.matches in
  Array.sort (fun a b -> compare b a) sorted;
  let top = Array.sub sorted 0 200 in
  let share =
    float_of_int (Array.fold_left ( + ) 0 top) /. float_of_int 10_000
  in
  (* Uniform placement gives the top quintile far less than 80%. *)
  Alcotest.(check bool) "uniform lacks concentration" true (share < 0.40)

let test_multi_topic_query_ground_truth () =
  (* Background documents knock out one query topic, so none can match
     the conjunction; summaries on each query topic are >= matches. *)
  let p = distribute ~query:[ 2; 5 ] ~background:4.0 () in
  Array.iteri
    (fun v m ->
      let s = Placement.node_summary p v in
      Alcotest.(check bool) "t2 >= matches" true
        (Summary.get s 2 >= float_of_int m);
      Alcotest.(check bool) "t5 >= matches" true
        (Summary.get s 5 >= float_of_int m);
      (* At least one of the two query topics has no background excess
         beyond what avoided docs contribute is not guaranteed per node,
         but the minimum across query topics bounds matches. *)
      Alcotest.(check bool) "min topic bounds matches" true
        (Float.min (Summary.get s 2) (Summary.get s 5) >= float_of_int m))
    p.Placement.matches

let test_validation () =
  Alcotest.check_raises "empty query"
    (Invalid_argument "Placement.distribute: empty query") (fun () ->
      ignore (distribute ~query:[] ()));
  Alcotest.check_raises "bad share"
    (Invalid_argument "Placement.distribute: bias shares must be in (0, 1)")
    (fun () ->
      ignore
        (distribute
           ~distribution:(Placement.Biased { doc_share = 1.5; node_share = 0.2 })
           ()))

let test_determinism () =
  let a = distribute ~seed:9 () and b = distribute ~seed:9 () in
  Alcotest.(check bool) "same seed same placement" true
    (a.Placement.matches = b.Placement.matches)

(* A move shifts [matches] and both summaries by k on the total and
   on every query topic, and leaves the other topics and nodes alone. *)
let test_move () =
  let p = distribute ~query:[ 0; 3 ] () in
  let donor =
    let v = ref 0 in
    while p.Placement.matches.(!v) < 2 do incr v done;
    !v
  in
  let recipient = if donor = 0 then 1 else 0 in
  let before = Array.copy p.Placement.summaries in
  let m_donor = p.Placement.matches.(donor)
  and m_recipient = p.Placement.matches.(recipient) in
  let sd, sr = Placement.move p ~topics:[ 0; 3 ] ~donor ~recipient 2 in
  Alcotest.(check int) "donor matches" (m_donor - 2) p.Placement.matches.(donor);
  Alcotest.(check int) "recipient matches" (m_recipient + 2)
    p.Placement.matches.(recipient);
  Alcotest.(check bool) "returned summaries stored" true
    (p.Placement.summaries.(donor) == sd && p.Placement.summaries.(recipient) == sr);
  let shifted v delta (s : Summary.t) =
    let b = before.(v) in
    Alcotest.(check (float 0.)) "total" (b.Summary.total +. delta) s.Summary.total;
    Array.iteri
      (fun t x ->
        let moved = if t = 0 || t = 3 then delta else 0. in
        Alcotest.(check (float 0.))
          (Printf.sprintf "node %d topic %d" v t)
          (x +. moved) s.Summary.by_topic.(t))
      b.Summary.by_topic
  in
  shifted donor (-2.) sd;
  shifted recipient 2. sr;
  Alcotest.(check int) "total_matches kept" 100 p.Placement.total_matches;
  Alcotest.check_raises "more than the donor holds"
    (Invalid_argument "Placement.move: k outside [0, donor's matches]")
    (fun () ->
      ignore
        (Placement.move p ~topics:[ 0; 3 ] ~donor ~recipient
           (p.Placement.matches.(donor) + 1)))

(* The background pass draws every node's documents from the one
   stream at every size, so the layout depends only on [n] and the seed:
   not on the global pool's width, nor on whether the call runs inside
   a pool item, as a runner trial does.  40000 nodes is above the size
   where the layout once switched to per-shard streams. *)
let test_layout_invariant_under_pool () =
  let build () = distribute ~seed:5 ~n:40_000 ~results:400 ~background:2.0 () in
  let top_level jobs =
    let prev = Pool.jobs (Pool.global ()) in
    Pool.set_global_jobs jobs;
    Fun.protect ~finally:(fun () -> Pool.set_global_jobs prev) build
  in
  let in_item () =
    Pool.with_pool ~jobs:2 (fun pool ->
        (Pool.map pool ~n:2 (fun _ -> build ())).(0))
  in
  let a = top_level 1 in
  let b = top_level 4 in
  let c = in_item () in
  Alcotest.(check bool) "matches equal" true
    (a.Placement.matches = b.Placement.matches
    && a.Placement.matches = c.Placement.matches);
  Alcotest.(check bool) "summaries, top level at widths 1 and 4" true
    (a.Placement.summaries = b.Placement.summaries);
  Alcotest.(check bool) "summaries, top level and pool item" true
    (a.Placement.summaries = c.Placement.summaries)

let prop_matches_nonnegative_and_conserved =
  QCheck.Test.make ~name:"matches are non-negative and sum to QR" ~count:50
    QCheck.(pair (int_range 1 400) (int_range 0 500))
    (fun (n, results) ->
      let p =
        Placement.distribute (Prng.create (n + results)) ~universe ~n
          ~query_topics:[ 1 ] ~results ~distribution:Placement.Uniform ()
      in
      Array.for_all (fun m -> m >= 0) p.Placement.matches
      && Array.fold_left ( + ) 0 p.Placement.matches = results)

let suite =
  ( "placement",
    [
      Alcotest.test_case "conservation" `Quick test_conservation;
      Alcotest.test_case "summary consistency" `Quick test_summary_consistency;
      Alcotest.test_case "background totals" `Quick test_totals_include_background;
      Alcotest.test_case "80/20 bias" `Quick test_biased_distribution;
      Alcotest.test_case "uniform spread" `Quick test_uniform_spread;
      Alcotest.test_case "multi-topic ground truth" `Quick test_multi_topic_query_ground_truth;
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "move" `Quick test_move;
      Alcotest.test_case "layout invariant under pool width and nesting" `Quick
        test_layout_invariant_under_pool;
      QCheck_alcotest.to_alcotest prop_matches_nonnegative_and_conserved;
    ] )
