open Ri_util

(* Fanout trees are built row-directly rather than through the edge-list
   builder: in the structural tree (node 0 the root, node c's parent
   [(c - 1) / fanout]) every node's neighbor set is a closed form —
   parent [(c - 1) / fanout] plus children [c*fanout + 1 .. c*fanout +
   fanout] capped at [n - 1] — so each sorted adjacency row is emitted
   on its own, with no edge list to sort.  Sorted adjacency is a
   function of the edge set alone, so the result is identical to
   [Graph.of_edges] over the same edges. *)

let structural_row ~n ~fanout c =
  let lo = (c * fanout) + 1 in
  let hi = min (n - 1) (c * fanout + fanout) in
  let kids = if hi >= lo then hi - lo + 1 else 0 in
  let has_parent = if c > 0 then 1 else 0 in
  let row = Array.make (has_parent + kids) 0 in
  if has_parent = 1 then row.(0) <- (c - 1) / fanout;
  for i = 0 to kids - 1 do
    row.(has_parent + i) <- lo + i
  done;
  (* Parent < c < first child, children consecutive: already sorted. *)
  row

let regular ~n ~fanout =
  if n <= 0 then invalid_arg "Tree_gen.regular: n must be positive";
  if fanout <= 0 then invalid_arg "Tree_gen.regular: fanout must be positive";
  Graph.of_sorted_adjacency (Array.init n (structural_row ~n ~fanout))

let random_labels g ~n ~fanout =
  if n <= 0 then invalid_arg "Tree_gen.random_labels: n must be positive";
  if fanout <= 0 then
    invalid_arg "Tree_gen.random_labels: fanout must be positive";
  (* The permutation consumes the PRNG exactly as the edge-list version
     did — the stream stays aligned. *)
  let perm = Array.init n Fun.id in
  Prng.shuffle_in_place g perm;
  let adj = Array.make n [||] in
  for c = 0 to n - 1 do
    let row = structural_row ~n ~fanout c in
    for i = 0 to Array.length row - 1 do
      row.(i) <- perm.(row.(i))
    done;
    Array.sort Int.compare row;
    (* [perm] is a bijection: each index writes a distinct cell. *)
    adj.(perm.(c)) <- row
  done;
  Graph.of_sorted_adjacency adj

let random_attachment g ~n ~max_children =
  if n <= 0 then invalid_arg "Tree_gen.random_attachment: n must be positive";
  if max_children <= 0 then
    invalid_arg "Tree_gen.random_attachment: max_children must be positive";
  let children = Array.make n 0 in
  (* Nodes that can still accept a child, as a swappable pool.  Each
     draw depends on every earlier attachment, so this generator is
     inherently sequential. *)
  let pool = Array.make n 0 in
  let pool_len = ref 1 in
  let edges = ref [] in
  for v = 1 to n - 1 do
    let slot = Prng.int g !pool_len in
    let parent = pool.(slot) in
    edges := (parent, v) :: !edges;
    children.(parent) <- children.(parent) + 1;
    if children.(parent) >= max_children then begin
      (* Remove saturated parent from the pool. *)
      pool.(slot) <- pool.(!pool_len - 1);
      decr pool_len
    end;
    pool.(!pool_len) <- v;
    incr pool_len
  done;
  Graph.of_edges ~n !edges
