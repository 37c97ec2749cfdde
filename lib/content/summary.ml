open Ri_util

type t = { total : float; by_topic : float array }

let zero ~topics = { total = 0.; by_topic = Vecf.zeros topics }

let make ~total ~by_topic =
  if total < 0. || Array.exists (fun x -> x < 0.) by_topic then
    invalid_arg "Summary.make: negative count";
  { total; by_topic = Array.copy by_topic }

let of_counts ~total ~by_topic =
  make ~total:(float_of_int total) ~by_topic:(Array.map float_of_int by_topic)

let topics t = Array.length t.by_topic

let is_zero t = t.total = 0. && Array.for_all (fun x -> x = 0.) t.by_topic

let check_width a b name =
  if topics a <> topics b then
    invalid_arg (Printf.sprintf "Summary.%s: topic width mismatch" name)

let add a b =
  check_width a b "add";
  {
    total = a.total +. b.total;
    by_topic = Vecf.map2 ( +. ) a.by_topic b.by_topic;
  }

let sub a b =
  check_width a b "sub";
  {
    total = Float.max 0. (a.total -. b.total);
    by_topic = Vecf.map2 (fun x y -> Float.max 0. (x -. y)) a.by_topic b.by_topic;
  }

let scale t k =
  if k < 0. then invalid_arg "Summary.scale: negative factor";
  { total = t.total *. k; by_topic = Vecf.scale t.by_topic k }

let sum l ~topics = List.fold_left add (zero ~topics) l

let get t i =
  if i < 0 || i >= topics t then invalid_arg "Summary.get: topic out of range";
  t.by_topic.(i)

let selectivity t i =
  let v = get t i in
  if t.total <= 0. then 0. else v /. t.total

let as_vector t = Array.append [| t.total |] t.by_topic

(* Both metrics treat the summary as the vector [total; by_topic...]
   but walk the fields directly: update waves evaluate them per
   delivered message, and materializing the appended vector twice per
   call dominates their cost. *)
let max_rel_diff a b =
  check_width a b "max_rel_diff";
  let worst = ref 0. in
  let slot old_ new_ =
    let denom = Float.max (Float.abs old_) 1. in
    let d = Float.abs (new_ -. old_) /. denom in
    if d > !worst then worst := d
  in
  slot a.total b.total;
  for i = 0 to Array.length a.by_topic - 1 do
    slot a.by_topic.(i) b.by_topic.(i)
  done;
  !worst

(* A plain loop over an unboxed accumulator: a float ref captured by a
   local closure would box on every add.  The sum over
   [total; by_topic...] starts from [0.], hence [0. +. d0 *. d0]. *)
let euclidean_distance a b =
  check_width a b "euclidean_distance";
  let d0 = a.total -. b.total in
  let acc = ref (0. +. (d0 *. d0)) in
  let xa = a.by_topic and xb = b.by_topic in
  for i = 0 to Array.length xa - 1 do
    let d = xa.(i) -. xb.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let approx_equal ?eps a b =
  topics a = topics b && Vecf.approx_equal ?eps (as_vector a) (as_vector b)

let pp ppf t =
  Format.fprintf ppf "@[<h>{total=%.2f; [%s]}@]" t.total
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.2f") t.by_topic)))
