open Ri_util

type distribution =
  | Uniform
  | Biased of { doc_share : float; node_share : float }

let eighty_twenty = Biased { doc_share = 0.8; node_share = 0.2 }

type t = {
  matches : int array;
  summaries : Summary.t array;
  total_matches : int;
}

let distribute rng ~universe ~n ~query_topics ~results ~distribution
    ?(background_per_node = 2.0) ?(topics_per_background_doc = 2) () =
  if n <= 0 then invalid_arg "Placement.distribute: n must be positive";
  if results < 0 then invalid_arg "Placement.distribute: negative results";
  if query_topics = [] then
    invalid_arg "Placement.distribute: empty query";
  List.iter (Topic.check universe) query_topics;
  let c = Topic.count universe in
  let matches = Array.make n 0 in
  (* Place the query results. *)
  (match distribution with
  | Uniform ->
      for _ = 1 to results do
        let v = Prng.int rng n in
        matches.(v) <- matches.(v) + 1
      done
  | Biased { doc_share; node_share } ->
      if doc_share <= 0. || doc_share >= 1. || node_share <= 0. || node_share >= 1.
      then invalid_arg "Placement.distribute: bias shares must be in (0, 1)";
      let loaded_count = max 1 (int_of_float (Float.round (node_share *. float_of_int n))) in
      let loaded_count = min loaded_count (n - 1) in
      let perm = Array.init n Fun.id in
      Prng.shuffle_in_place rng perm;
      let loaded = Array.sub perm 0 loaded_count in
      let unloaded = Array.sub perm loaded_count (n - loaded_count) in
      for _ = 1 to results do
        let v =
          if Prng.bernoulli rng doc_share then Prng.pick rng loaded
          else Prng.pick rng unloaded
        in
        matches.(v) <- matches.(v) + 1
      done);
  (* Per-node topic counts, starting from the matching documents. *)
  let counts = Array.init n (fun _ -> Array.make c 0) in
  let totals = Array.make n 0 in
  for v = 0 to n - 1 do
    totals.(v) <- matches.(v);
    List.iter
      (fun topic -> counts.(v).(topic) <- counts.(v).(topic) + matches.(v))
      query_topics
  done;
  (* Background documents: each carries [topics_per_background_doc]
     distinct topics but never all the query topics at once.  With a
     single-topic query the background simply avoids that topic; with a
     wider query one random query topic is knocked out of the set. *)
  let tpb = max 1 (min topics_per_background_doc c) in
  let query_arr = Array.of_list query_topics in
  let add_background rng v =
    let chosen = Sampling.choose_distinct rng ~k:tpb ~n:c in
    let forbidden = query_arr.(Prng.int rng (Array.length query_arr)) in
    let row = counts.(v) in
    let contributed = ref false in
    Array.iter
      (fun topic ->
        if topic <> forbidden then begin
          row.(topic) <- row.(topic) + 1;
          contributed := true
        end)
      chosen;
    (* A document whose every topic was forbidden would be topic-less;
       park it on a deterministic substitute instead so totals stay
       meaningful. *)
    if not !contributed then begin
      let substitute = (forbidden + 1) mod c in
      row.(substitute) <- row.(substitute) + 1
    end;
    totals.(v) <- totals.(v) + 1
  in
  if background_per_node < 0. then
    invalid_arg "Placement.distribute: negative background_per_node";
  let whole = int_of_float background_per_node in
  let frac = background_per_node -. float_of_int whole in
  let background_for rng v =
    for _ = 1 to whole do
      add_background rng v
    done;
    if frac > 0. && Prng.bernoulli rng frac then add_background rng v
  in
  for v = 0 to n - 1 do
    background_for rng v
  done;
  let summaries =
    Array.init n (fun v ->
        Summary.of_counts ~total:totals.(v) ~by_topic:counts.(v))
  in
  { matches; summaries; total_matches = results }

let node_summary t v = t.summaries.(v)

(* A plain loop over the by-topic arrays: the running sum stays in a
   register, so no float is boxed per node. *)
let topic_total t topic =
  let sum = ref 0. in
  for v = 0 to Array.length t.summaries - 1 do
    sum := !sum +. t.summaries.(v).Summary.by_topic.(topic)
  done;
  !sum

(* Matching documents carry exactly the query topics, so moving [k] of
   them shifts a summary by [k] on the total and on each query topic,
   clamped at 0 against float fuzz. *)
let move t ~topics ~donor ~recipient k =
  if k < 0 || k > t.matches.(donor) then
    invalid_arg "Placement.move: k outside [0, donor's matches]";
  let shift v delta =
    let s = t.summaries.(v) in
    let by_topic = Array.copy s.Summary.by_topic in
    List.iter
      (fun tp -> by_topic.(tp) <- Float.max 0. (by_topic.(tp) +. delta))
      topics;
    let s' =
      Summary.make ~total:(Float.max 0. (s.Summary.total +. delta)) ~by_topic
    in
    t.summaries.(v) <- s';
    s'
  in
  t.matches.(donor) <- t.matches.(donor) - k;
  t.matches.(recipient) <- t.matches.(recipient) + k;
  let d = float_of_int k in
  let donor_summary = shift donor (-.d) in
  (donor_summary, shift recipient d)
