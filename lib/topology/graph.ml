type t = { adj : int array array; m : int }

let n t = Array.length t.adj

let edge_count t = t.m

let neighbors t v = t.adj.(v)

let degree t v = Array.length t.adj.(v)

(* Rows are sorted with [Int.compare] (see [Builder.to_graph]); the
   bsearch reuses it so lookup and sort can never disagree. *)
let has_edge t u v =
  let row = t.adj.(u) in
  let rec bsearch lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let c = Int.compare row.(mid) v in
      if c = 0 then true
      else if c < 0 then bsearch (mid + 1) hi
      else bsearch lo mid
  in
  bsearch 0 (Array.length row)

module Builder = struct
  type t = {
    nodes : int;
    rows : (int, unit) Hashtbl.t array;
    mutable m : int;
  }

  let create ~n =
    if n <= 0 then invalid_arg "Graph.Builder.create: n must be positive";
    { nodes = n; rows = Array.init n (fun _ -> Hashtbl.create 4); m = 0 }

  let check t v =
    if v < 0 || v >= t.nodes then
      invalid_arg "Graph.Builder: node id out of range"

  let has_edge t u v =
    check t u;
    check t v;
    Hashtbl.mem t.rows.(u) v

  let add_edge t u v =
    check t u;
    check t v;
    if u = v || Hashtbl.mem t.rows.(u) v then false
    else begin
      Hashtbl.add t.rows.(u) v ();
      Hashtbl.add t.rows.(v) u ();
      t.m <- t.m + 1;
      true
    end

  let edge_count t = t.m

  let degree t v =
    check t v;
    Hashtbl.length t.rows.(v)

  let to_graph t =
    let adj =
      Array.map
        (fun row ->
          let a = Array.make (Hashtbl.length row) 0 in
          let i = ref 0 in
          Hashtbl.iter
            (fun v () ->
              a.(!i) <- v;
              incr i)
            row;
          (* [Int.compare], not polymorphic [compare]: the generic
             structural compare walks its runtime-type dispatch per
             element pair, measurable on the 100k-node power-law
             build's hub rows. *)
          Array.sort Int.compare a;
          a)
        t.rows
    in
    { adj; m = t.m }
end

(* Direct constructor for generators that can emit each node's sorted
   row independently.  Validates what can be checked per row in one
   pass — range, self-loops, strict ascending order, an even half-edge
   total — but trusts the caller for symmetry: checking it would cost
   the bsearches the fast path exists to skip. *)
let of_sorted_adjacency adj =
  let n = Array.length adj in
  if n = 0 then invalid_arg "Graph.of_sorted_adjacency: no nodes";
  let total = ref 0 in
  Array.iteri
    (fun u row ->
      total := !total + Array.length row;
      let prev = ref (-1) in
      Array.iter
        (fun v ->
          if v < 0 || v >= n then
            invalid_arg "Graph.of_sorted_adjacency: node id out of range";
          if v = u then invalid_arg "Graph.of_sorted_adjacency: self-loop";
          if v <= !prev then
            invalid_arg "Graph.of_sorted_adjacency: row not strictly ascending";
          prev := v)
        row)
    adj;
  if !total land 1 = 1 then
    invalid_arg "Graph.of_sorted_adjacency: odd half-edge count";
  { adj; m = !total / 2 }

let of_edges ~n edges =
  let b = Builder.create ~n in
  List.iter
    (fun (u, v) ->
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      if not (Builder.add_edge b u v) then
        invalid_arg "Graph.of_edges: duplicate edge")
    edges;
  Builder.to_graph b

let edges t =
  let acc = ref [] in
  for u = n t - 1 downto 0 do
    let row = t.adj.(u) in
    for i = Array.length row - 1 downto 0 do
      let v = row.(i) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

let fold_edges f t init =
  let acc = ref init in
  for u = 0 to n t - 1 do
    let row = t.adj.(u) in
    for i = 0 to Array.length row - 1 do
      let v = row.(i) in
      if u < v then acc := f u v !acc
    done
  done;
  !acc

let iter_nodes f t =
  for v = 0 to n t - 1 do
    f v
  done

let bfs_run t src ~on_tree_edge =
  let dist = Array.make (n t) max_int in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let row = t.adj.(u) in
    for i = 0 to Array.length row - 1 do
      let v = row.(i) in
      if dist.(v) = max_int then begin
        dist.(v) <- dist.(u) + 1;
        on_tree_edge ~parent:u ~child:v;
        Queue.add v q
      end
    done
  done;
  dist

let bfs_distances t src =
  bfs_run t src ~on_tree_edge:(fun ~parent:_ ~child:_ -> ())

let bfs_parents t src =
  let parents = Array.make (n t) (-1) in
  parents.(src) <- src;
  let (_ : int array) =
    bfs_run t src ~on_tree_edge:(fun ~parent ~child -> parents.(child) <- parent)
  in
  parents

let is_connected t =
  let dist = bfs_distances t 0 in
  Array.for_all (fun d -> d < max_int) dist

let component_representatives t =
  let seen = Array.make (n t) false in
  let reps = ref [] in
  for v = 0 to n t - 1 do
    if not seen.(v) then begin
      reps := v :: !reps;
      let dist = bfs_distances t v in
      Array.iteri (fun u d -> if d < max_int then seen.(u) <- true) dist
    end
  done;
  List.rev !reps

let spanning_tree_edges t =
  let seen = Array.make (n t) false in
  let acc = ref [] in
  let visit root =
    if not seen.(root) then begin
      seen.(root) <- true;
      let q = Queue.create () in
      Queue.add root q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Array.iter
          (fun v ->
            if not seen.(v) then begin
              seen.(v) <- true;
              acc := (min u v, max u v) :: !acc;
              Queue.add v q
            end)
          t.adj.(u)
      done
    end
  in
  List.iter visit (List.init (n t) Fun.id);
  List.rev !acc
