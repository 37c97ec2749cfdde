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

type forest = { order : int array; reached : int; parent : int array }

let bfs ?root ~n neighbours =
  (match root with
  | Some r when r < 0 || r >= n -> invalid_arg "Graph.bfs: root out of range"
  | Some _ | None -> ());
  let first = Option.value root ~default:0 in
  let last = Option.value root ~default:(n - 1) in
  let parent = Array.make n (-2) and order = Array.make n 0 in
  (* [order] doubles as the queue: [head] is the next node to expand. *)
  let reached = ref 0 and head = ref 0 in
  for r = first to last do
    if parent.(r) = -2 then begin
      parent.(r) <- -1;
      order.(!reached) <- r;
      incr reached;
      while !head < !reached do
        let u = order.(!head) in
        incr head;
        let row = neighbours u in
        for k = 0 to Array.length row - 1 do
          let v = row.(k) in
          if parent.(v) = -2 then begin
            parent.(v) <- u;
            order.(!reached) <- v;
            incr reached
          end
        done
      done
    end
  done;
  { order; reached = !reached; parent }

(* Parents come before their children in [order], so a forward scan
   finds each parent's depth already written over its parent id. *)
let depths_in_place f =
  let d = f.parent in
  for i = 0 to f.reached - 1 do
    let v = f.order.(i) in
    let p = d.(v) in
    d.(v) <- (if p = -1 then 0 else d.(p) + 1)
  done;
  for v = 0 to Array.length d - 1 do
    if d.(v) = -2 then d.(v) <- max_int
  done;
  d

let bfs_distances t src = depths_in_place (bfs ~root:src ~n:(n t) (neighbors t))

let is_connected t = (bfs ~root:0 ~n:(n t) (neighbors t)).reached = n t
