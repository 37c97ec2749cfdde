open Ri_util

let generate g ~n ~exponent ?max_degree ?(min_degree = 1) () =
  if n < 2 then invalid_arg "Power_law.generate: need at least two nodes";
  if exponent >= 0. then
    invalid_arg "Power_law.generate: exponent must be negative";
  let max_degree =
    match max_degree with
    | Some d -> min d (n - 1)
    | None ->
        (* Hub degree grows sublinearly with network size, as in the
           Internet AS graphs the exponent is fitted to; a linear cap
           would make small networks unrealistically hub-centric (a
           2-hop ball around a hub covering most of the overlay). *)
        max min_degree (min (n - 1) (int_of_float (float_of_int n ** 0.45)))
  in
  let credits =
    Sampling.power_law_degrees g ~n ~exponent ~max_degree
    |> Array.map (max min_degree)
  in
  let b = Graph.Builder.create ~n in
  (* Pool of nodes with remaining credits; each node appears once and is
     dropped when its credits hit zero.  Pairing attempts that hit a
     duplicate edge or self-pair burn one try; after [max_tries] stalls we
     stop wiring credits (PLOD discards leftover credits the same way). *)
  let pool = Array.init n Fun.id in
  let pool_len = ref n in
  let drop slot =
    pool.(slot) <- pool.(!pool_len - 1);
    decr pool_len
  in
  let stalls = ref 0 in
  let max_stalls = 50 * n in
  while !pool_len >= 2 && !stalls < max_stalls do
    let si = Prng.int g !pool_len in
    let sj = Prng.int g !pool_len in
    if si = sj then incr stalls
    else begin
      let u = pool.(si) and v = pool.(sj) in
      if Graph.Builder.add_edge b u v then begin
        credits.(u) <- credits.(u) - 1;
        credits.(v) <- credits.(v) - 1;
        (* Drop the higher slot first so the lower slot stays valid. *)
        let hi = max si sj and lo = min si sj in
        let hi_node = pool.(hi) and lo_node = pool.(lo) in
        if credits.(hi_node) <= 0 then drop hi;
        if credits.(lo_node) <= 0 then
          (* [lo] still holds the same node: only the slot at [hi] moved. *)
          drop lo
      end
      else incr stalls
    end
  done;
  let draft = Graph.Builder.to_graph b in
  (* Each component is a run of the forest's visit order that starts at
     its root, its least id; roots come in ascending id. *)
  let { Graph.order; parent; _ } = Graph.bfs ~n (Graph.neighbors draft) in
  let giant = ref 0 and giant_len = ref 0 and run = ref 0 in
  for i = 1 to n do
    if i = n || parent.(order.(i)) = -1 then begin
      if i - !run > !giant_len then begin
        giant := !run;
        giant_len := i - !run
      end;
      run := i
    end
  done;
  if !giant_len = n then draft
  else begin
    (* Bridge every other component's root to the giant (the first
       longest run), each at a uniformly random member, drawn from the
       members in descending id — anchoring at a fixed node would graft
       an artificial mega-hub onto the degree distribution.  [b] still
       holds the draft's links. *)
    let members = Array.sub order !giant !giant_len in
    Array.sort (fun u v -> Int.compare v u) members;
    for v = 0 to n - 1 do
      if parent.(v) = -1 && v <> order.(!giant) then
        ignore (Graph.Builder.add_edge b (Prng.pick g members) v)
    done;
    Graph.Builder.to_graph b
  end
