(* Graph representation and traversals. *)

open Ri_topology

(* The paper's Figure 2/3 overlay: A..J = 0..9.
   A-B, A-C, A-D, B-E, B-F, C-G, G-H, D-I, D-J. *)
let paper_edges =
  [ (0, 1); (0, 2); (0, 3); (1, 4); (1, 5); (2, 6); (6, 7); (3, 8); (3, 9) ]

let paper_graph () = Graph.of_edges ~n:10 paper_edges

let test_counts () =
  let g = paper_graph () in
  Alcotest.(check int) "nodes" 10 (Graph.n g);
  Alcotest.(check int) "edges" 9 (Graph.edge_count g)

let test_neighbors_sorted () =
  let g = Graph.of_edges ~n:4 [ (0, 3); (0, 1); (0, 2) ] in
  Alcotest.(check (array int)) "sorted" [| 1; 2; 3 |] (Graph.neighbors g 0);
  Alcotest.(check int) "degree" 3 (Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 2)

let test_has_edge () =
  let g = paper_graph () in
  Alcotest.(check bool) "present" true (Graph.has_edge g 0 3);
  Alcotest.(check bool) "symmetric" true (Graph.has_edge g 3 0);
  Alcotest.(check bool) "absent" false (Graph.has_edge g 4 9)

let test_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop")
    (fun () -> ignore (Graph.of_edges ~n:2 [ (1, 1) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.of_edges: duplicate edge") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 1); (1, 0) ]))

let test_edges_listing () =
  let g = paper_graph () in
  let listed = Graph.edges g in
  Alcotest.(check int) "count" 9 (List.length listed);
  List.iter
    (fun (u, v) -> Alcotest.(check bool) "u < v" true (u < v))
    listed;
  let folded = Graph.fold_edges (fun _ _ acc -> acc + 1) g 0 in
  Alcotest.(check int) "fold count" 9 folded

let test_bfs_distances () =
  let g = paper_graph () in
  let d = Graph.bfs_distances g 0 in
  Alcotest.(check int) "self" 0 d.(0);
  Alcotest.(check int) "child" 1 d.(3);
  Alcotest.(check int) "grandchild" 2 d.(8);
  Alcotest.(check int) "H is 3 hops" 3 d.(7)

(* The forest grown from every unreached node, and its roots. *)
let forest g = Graph.bfs ~n:(Graph.n g) (Graph.neighbors g)

let roots (f : Graph.forest) =
  Array.fold_left (fun c p -> if p = -1 then c + 1 else c) 0 f.parent

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let d = Graph.bfs_distances g 0 in
  Alcotest.(check int) "unreachable" max_int d.(3);
  Alcotest.(check bool) "not connected" false (Graph.is_connected g);
  Alcotest.(check int) "three components" 3 (roots (forest g));
  let f = Graph.bfs ~root:0 ~n:4 (Graph.neighbors g) in
  Alcotest.(check int) "reached from 0" 2 f.reached;
  Alcotest.(check int) "unreached code" (-2) f.parent.(3)

let test_bfs_parents () =
  let g = paper_graph () in
  let p = (Graph.bfs ~root:0 ~n:10 (Graph.neighbors g)).parent in
  Alcotest.(check int) "root" (-1) p.(0);
  Alcotest.(check int) "H's parent is G" 6 p.(7);
  Alcotest.(check int) "I's parent is D" 3 p.(8)

let test_connected () =
  Alcotest.(check bool) "paper graph" true (Graph.is_connected (paper_graph ()))

let test_spanning_tree () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let f = forest g in
  Alcotest.(check int) "n-1 edges" 3 (Graph.n g - roots f);
  Alcotest.(check int) "every node reached" 4 f.reached

let test_builder () =
  let b = Graph.Builder.create ~n:3 in
  Alcotest.(check bool) "add" true (Graph.Builder.add_edge b 0 1);
  Alcotest.(check bool) "duplicate rejected" false (Graph.Builder.add_edge b 1 0);
  Alcotest.(check bool) "self rejected" false (Graph.Builder.add_edge b 2 2);
  Alcotest.(check int) "edge count" 1 (Graph.Builder.edge_count b);
  Alcotest.(check int) "degree" 1 (Graph.Builder.degree b 0);
  let g = Graph.Builder.to_graph b in
  Alcotest.(check int) "graph edges" 1 (Graph.edge_count g);
  Alcotest.check_raises "range" (Invalid_argument "Graph.Builder: node id out of range")
    (fun () -> ignore (Graph.Builder.add_edge b 0 5))

let prop_bfs_distance_triangle =
  (* Distance from a BFS source to a node is at most 1 more than to any
     of the node's neighbors. *)
  QCheck.Test.make ~name:"bfs distances are 1-Lipschitz along edges" ~count:50
    QCheck.(int_range 2 60)
    (fun n ->
      let rng = Ri_util.Prng.create n in
      let g = Tree_gen.random_labels rng ~n ~fanout:3 in
      let d = Graph.bfs_distances g 0 in
      Graph.fold_edges
        (fun u v acc -> acc && abs (d.(u) - d.(v)) <= 1)
        g true)

(* A reference breadth-first search over adjacency lists, sharing no
   code with [Graph]: each node's sorted, distinct neighbours. *)
let ref_rows n edges =
  List.init n (fun v ->
      List.filter_map
        (fun (a, b) -> if a = v then Some b else if b = v then Some a else None)
        edges
      |> List.sort_uniq compare)

(* [(node, hop count from src)] for every node of [src]'s component,
   grown one level at a time. *)
let ref_hops rows src =
  let rec levels seen frontier d acc =
    if frontier = [] then acc
    else
      let next =
        List.concat_map (List.nth rows) frontier
        |> List.sort_uniq compare
        |> List.filter (fun v -> not (List.mem v seen))
      in
      levels (next @ seen) next (d + 1) (List.map (fun v -> (v, d)) frontier @ acc)
  in
  levels [ src ] [ src ] 0 []

(* The least id of every component, in ascending order. *)
let ref_roots rows n =
  List.fold_left
    (fun (roots, covered) v ->
      if List.mem v covered then (roots, covered)
      else (v :: roots, List.map fst (ref_hops rows v) @ covered))
    ([], []) (List.init n Fun.id)
  |> fst |> List.rev

(* Position of [x] in [l]. *)
let rec index x i = function
  | [] -> -1
  | y :: rest -> if y = x then i else index x (i + 1) rest

(* Checks [Graph.bfs ?root] on [g] against the reference: [order] is a
   permutation of the reached nodes, the roots are the reference's, each
   parent is the first earlier node in [order] whose row holds the node
   (-1 when none does), a parent's children follow one another in its
   row's order, unreached nodes read -2, and depths are the reference's
   hop counts from each node's root. *)
let matches_reference g rows root =
  let n = Graph.n g in
  let f = Graph.bfs ?root ~n (Graph.neighbors g) in
  let order = Array.to_list (Array.sub f.order 0 f.reached) in
  let roots = match root with Some r -> [ r ] | None -> ref_roots rows n in
  let hops = List.concat_map (ref_hops rows) roots in
  let rec fifo before = function
    | [] -> true
    | v :: rest ->
        let first =
          List.find_opt (fun u -> List.mem v (List.nth rows u)) (List.rev before)
        in
        f.parent.(v) = Option.value first ~default:(-1) && fifo (v :: before) rest
  in
  (* Consecutive non-root nodes of [order] are ordered by their
     parent's position, then by their index in its row: a node queues
     its children in row order when it is expanded. *)
  let key v =
    let p = f.parent.(v) in
    (index p 0 order, index v 0 (List.nth rows p))
  in
  let rec row_order = function
    | v :: (w :: _ as rest) ->
        (f.parent.(v) < 0 || f.parent.(w) < 0 || key v < key w) && row_order rest
    | [ _ ] | [] -> true
  in
  let unreached = List.filter (fun v -> not (List.mem_assoc v hops)) (List.init n Fun.id) in
  List.sort compare order = List.sort compare (List.map fst hops)
  && List.filter (fun v -> f.parent.(v) = -1) order = roots
  && fifo [] order
  && row_order order
  && List.for_all (fun v -> f.parent.(v) = -2) unreached
  &&
  let depth = Graph.depths_in_place f in
  List.for_all (fun (v, h) -> depth.(v) = h) hops
  && List.for_all (fun v -> depth.(v) = max_int) unreached

let prop_bfs_reference =
  QCheck.Test.make ~name:"bfs matches a list-based reference" ~count:300
    QCheck.(
      triple (int_range 1 40) (int_bound 39)
        (list_of_size Gen.(0 -- 60) (pair (int_bound 39) (int_bound 39))))
    (fun (n, root, pairs) ->
      (* Few edges over up to 40 nodes: isolated nodes and several
         components are common. *)
      let edges =
        List.map (fun (a, b) -> (min (a mod n) (b mod n), max (a mod n) (b mod n))) pairs
        |> List.filter (fun (a, b) -> a <> b)
        |> List.sort_uniq compare
      in
      let g = Graph.of_edges ~n edges in
      let rows = ref_rows n edges in
      matches_reference g rows None && matches_reference g rows (Some (root mod n)))

let suite =
  ( "graph",
    [
      Alcotest.test_case "counts" `Quick test_counts;
      Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
      Alcotest.test_case "has_edge" `Quick test_has_edge;
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "edges listing" `Quick test_edges_listing;
      Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
      Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
      Alcotest.test_case "bfs parents" `Quick test_bfs_parents;
      Alcotest.test_case "connected" `Quick test_connected;
      Alcotest.test_case "spanning tree" `Quick test_spanning_tree;
      Alcotest.test_case "builder" `Quick test_builder;
      QCheck_alcotest.to_alcotest prop_bfs_distance_triangle;
      QCheck_alcotest.to_alcotest prop_bfs_reference;
    ] )
