(* Topology generators: the paper's tree, tree+cycles and power-law
   overlays, plus graph diagnostics. *)

open Ri_util
open Ri_topology

let test_regular_tree_shape () =
  let g = Tree_gen.regular ~n:21 ~fanout:4 in
  Alcotest.(check int) "edges" 20 (Graph.edge_count g);
  Alcotest.(check bool) "is a tree" true (Metrics.is_tree g);
  (* Root has 4 children; internal nodes have at most fanout+1 links. *)
  Alcotest.(check int) "root degree" 4 (Graph.degree g 0);
  Graph.iter_nodes
    (fun v -> Alcotest.(check bool) "degree bound" true (Graph.degree g v <= 5))
    g

let test_regular_tree_depth () =
  (* A complete 4-ary tree on 1+4+16 = 21 nodes has eccentricity 2 from
     the root. *)
  let g = Tree_gen.regular ~n:21 ~fanout:4 in
  Alcotest.(check int) "depth" 2 (Metrics.eccentricity g 0)

let test_random_labels_same_shape () =
  let rng = Prng.create 1 in
  let g = Tree_gen.random_labels rng ~n:200 ~fanout:4 in
  Alcotest.(check bool) "tree" true (Metrics.is_tree g);
  Alcotest.(check int) "edges" 199 (Graph.edge_count g);
  let hist_regular = Metrics.degree_histogram (Tree_gen.regular ~n:200 ~fanout:4) in
  let hist_shuffled = Metrics.degree_histogram g in
  Alcotest.(check bool) "degree histogram preserved" true
    (hist_regular = hist_shuffled)

let test_random_attachment () =
  let rng = Prng.create 2 in
  let g = Tree_gen.random_attachment rng ~n:300 ~max_children:3 in
  Alcotest.(check bool) "tree" true (Metrics.is_tree g);
  (* max_children children plus one parent link. *)
  Graph.iter_nodes
    (fun v -> Alcotest.(check bool) "bounded degree" true (Graph.degree g v <= 4))
    g

let test_tree_gen_validation () =
  Alcotest.check_raises "n" (Invalid_argument "Tree_gen.regular: n must be positive")
    (fun () -> ignore (Tree_gen.regular ~n:0 ~fanout:2))

let test_cycle_gen_counts () =
  let rng = Prng.create 3 in
  let g = Cycle_gen.tree_with_cycles rng ~n:100 ~fanout:4 ~extra_links:10 in
  Alcotest.(check int) "edges" 109 (Graph.edge_count g);
  Alcotest.(check int) "cyclomatic" 10 (Metrics.cyclomatic_number g);
  Alcotest.(check bool) "still connected" true (Graph.is_connected g);
  Alcotest.(check bool) "not a tree" false (Metrics.is_tree g)

let test_cycle_gen_zero () =
  let rng = Prng.create 4 in
  let g = Cycle_gen.tree_with_cycles rng ~n:50 ~fanout:4 ~extra_links:0 in
  Alcotest.(check bool) "tree preserved" true (Metrics.is_tree g)

let test_cycle_gen_capacity () =
  let rng = Prng.create 5 in
  let base = Tree_gen.regular ~n:4 ~fanout:3 in
  (* K4 has 6 edges; the tree has 3, so at most 3 more fit. *)
  Alcotest.check_raises "overfull"
    (Invalid_argument "Cycle_gen.add_random_links: not enough absent pairs")
    (fun () -> ignore (Cycle_gen.add_random_links rng base ~extra:4));
  let full = Cycle_gen.add_random_links rng base ~extra:3 in
  Alcotest.(check int) "complete graph" 6 (Graph.edge_count full)

let test_power_law_connected () =
  let rng = Prng.create 6 in
  let g = Power_law.generate rng ~n:2000 ~exponent:(-2.2088) () in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check int) "node count" 2000 (Graph.n g)

let test_power_law_exponent_estimate () =
  let rng = Prng.create 7 in
  let g = Power_law.generate rng ~n:5000 ~exponent:(-2.2088) () in
  let est = Metrics.estimated_power_law_exponent g in
  Alcotest.(check bool) "clearly negative" true (est < -1.0);
  (* Heavy-tailed: some node far above the mean degree. *)
  Alcotest.(check bool) "has hubs" true
    (float_of_int (Metrics.max_degree g) > 4. *. Metrics.mean_degree g)

let test_power_law_max_degree_cap () =
  let rng = Prng.create 8 in
  let g = Power_law.generate rng ~n:500 ~exponent:(-2.2) ~max_degree:10 () in
  (* Component bridging can add a few links on top of the cap. *)
  Alcotest.(check bool) "capped" true (Metrics.max_degree g <= 20)

let test_power_law_no_bridging_megahub () =
  (* Regression: bridging the many small components must spread anchors
     over the giant component, not graft them onto one node. *)
  let rng = Prng.create 12 in
  let g = Power_law.generate rng ~n:3000 ~exponent:(-2.2088) () in
  let cap = int_of_float (3000. ** 0.45) in
  Alcotest.(check bool) "no artificial hub" true
    (Metrics.max_degree g <= cap + 10)

(* Adjacency digests of [Power_law.generate] at the paper's exponent.
   The drafts these sizes wire hold many components (75 at 300 nodes,
   406 to 427 at 2,000 and 2,050 to 2,099 at 10,000), so the pins cover
   the representatives, the giant component, its member order and the
   anchor draws that bridge the rest to it. *)
let power_law_digest ~n ~seed =
  let g = Power_law.generate (Prng.create seed) ~n ~exponent:(-2.2088) () in
  let buf = Buffer.create (16 * n) in
  for v = 0 to n - 1 do
    Printf.bprintf buf "%d:" v;
    Array.iter (Printf.bprintf buf " %d") (Graph.neighbors g v);
    Buffer.add_char buf '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let power_law_digests =
  [
    (300, 1, "e8e99114cc9ed91c4de9114fae0bb0d7");
    (2_000, 1, "40c8411a3ca37be8ffdd06a46c4deb54");
    (2_000, 2, "c5e97f3cffe1dd97276e45e000dbfa41");
    (2_000, 3, "4ae728154c7214feb4501ae0bb84983e");
    (2_000, 4, "9cc37a157641f525abe184799c514794");
    (2_000, 5, "72207b9ba7ed4b912aee9d43b9fedd4e");
    (10_000, 1, "d8c0d9d29fcb6a20e0801143bb0005ef");
    (10_000, 2, "39bd26392d8ada9b722e63ba4483a7fb");
    (10_000, 3, "774a307a004554e2b2e506f43316dc1f");
  ]

let test_power_law_digests () =
  List.iter
    (fun (n, seed, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%d nodes, seed %d" n seed)
        expected (power_law_digest ~n ~seed))
    power_law_digests

let test_power_law_validation () =
  let rng = Prng.create 9 in
  Alcotest.check_raises "positive exponent"
    (Invalid_argument "Power_law.generate: exponent must be negative")
    (fun () -> ignore (Power_law.generate rng ~n:10 ~exponent:2. ()))

let test_metrics_path_graph () =
  (* Path 0-1-2-3: exact average path length =
     (1+2+3 + 1+1+2 + 2+1+1 + 3+2+1) / 12 = 20/12. *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let rng = Prng.create 10 in
  Alcotest.(check (float 1e-9)) "average path length" (20. /. 12.)
    (Metrics.average_path_length ~samples:4 rng g);
  Alcotest.(check int) "eccentricity of end" 3 (Metrics.eccentricity g 0);
  Alcotest.(check int) "eccentricity of middle" 2 (Metrics.eccentricity g 1)

let test_power_law_shorter_paths_than_tree () =
  (* The Figure 17 explanation: power-law topologies have a lower
     average path length than trees of the same size. *)
  let rng = Prng.create 11 in
  let tree = Tree_gen.random_labels (Prng.split rng) ~n:3000 ~fanout:4 in
  let pl = Power_law.generate (Prng.split rng) ~n:3000 ~exponent:(-2.2088) () in
  let apl_tree = Metrics.average_path_length ~samples:16 (Prng.split rng) tree in
  let apl_pl = Metrics.average_path_length ~samples:16 (Prng.split rng) pl in
  Alcotest.(check bool) "power-law paths shorter" true (apl_pl < apl_tree)

let test_degree_histogram () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check (list (pair int int))) "star histogram" [ (1, 3); (3, 1) ]
    (Metrics.degree_histogram g);
  Alcotest.(check (float 1e-9)) "mean degree" 1.5 (Metrics.mean_degree g)

let suite =
  ( "topology",
    [
      Alcotest.test_case "regular tree shape" `Quick test_regular_tree_shape;
      Alcotest.test_case "regular tree depth" `Quick test_regular_tree_depth;
      Alcotest.test_case "random labels keep shape" `Quick test_random_labels_same_shape;
      Alcotest.test_case "random attachment" `Quick test_random_attachment;
      Alcotest.test_case "tree validation" `Quick test_tree_gen_validation;
      Alcotest.test_case "tree+cycles counts" `Quick test_cycle_gen_counts;
      Alcotest.test_case "tree+cycles zero" `Quick test_cycle_gen_zero;
      Alcotest.test_case "tree+cycles capacity" `Quick test_cycle_gen_capacity;
      Alcotest.test_case "power law connected" `Quick test_power_law_connected;
      Alcotest.test_case "power law exponent" `Quick test_power_law_exponent_estimate;
      Alcotest.test_case "power law degree cap" `Quick test_power_law_max_degree_cap;
      Alcotest.test_case "power law bridging" `Quick test_power_law_no_bridging_megahub;
      Alcotest.test_case "power law validation" `Quick test_power_law_validation;
      Alcotest.test_case "power law digests" `Quick test_power_law_digests;
      Alcotest.test_case "metrics on path graph" `Quick test_metrics_path_graph;
      Alcotest.test_case "power law short paths" `Slow test_power_law_shorter_paths_than_tree;
      Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
    ] )
