open Ri_util

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  Graph.iter_nodes
    (fun v ->
      let d = Graph.degree g v in
      Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    g;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mean_degree g = 2. *. float_of_int (Graph.edge_count g) /. float_of_int (Graph.n g)

let max_degree g =
  let best = ref 0 in
  Graph.iter_nodes (fun v -> best := max !best (Graph.degree g v)) g;
  !best

let estimated_power_law_exponent g =
  let pts =
    degree_histogram g
    |> List.filter (fun (d, c) -> d > 0 && c > 0)
    |> List.map (fun (d, c) -> (log (float_of_int d), log (float_of_int c)))
  in
  match pts with
  | [] | [ _ ] -> nan
  | _ ->
      let n = float_of_int (List.length pts) in
      let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
      let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
      let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
      let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
      let denom = (n *. sxx) -. (sx *. sx) in
      if Float.abs denom < 1e-12 then nan
      else ((n *. sxy) -. (sx *. sy)) /. denom

let average_path_length ?(samples = 32) rng g =
  let n = Graph.n g in
  let srcs =
    if samples >= n then Array.init n Fun.id
    else Sampling.choose_distinct rng ~k:samples ~n
  in
  let total = ref 0. and pairs = ref 0 in
  Array.iter
    (fun src ->
      let dist = Graph.bfs_distances g src in
      Array.iteri
        (fun v d ->
          if v <> src && d < max_int then begin
            total := !total +. float_of_int d;
            incr pairs
          end)
        dist)
    srcs;
  if !pairs = 0 then nan else !total /. float_of_int !pairs

let eccentricity g v =
  let dist = Graph.bfs_distances g v in
  Array.fold_left
    (fun acc d -> if d < max_int && d > acc then d else acc)
    0 dist

let cyclomatic_number g =
  let n = Graph.n g in
  (* One component per root of the breadth-first forest. *)
  let forest = Graph.bfs ~n (Graph.neighbors g) in
  let c = Array.fold_left (fun c p -> if p = -1 then c + 1 else c) 0 forest.parent in
  Graph.edge_count g - n + c

let is_tree g = cyclomatic_number g = 0 && Graph.is_connected g
