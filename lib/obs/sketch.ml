(* Deterministic mergeable quantile sketch (DDSketch-style log buckets).

   A value x > 0 lands in bucket ceil(log_gamma x) with
   gamma = (1 + alpha) / (1 - alpha); the bucket's midpoint estimate
   2*gamma^i / (gamma + 1) is then within relative error [alpha] of any
   value the bucket holds — the bounded-relative-error guarantee the
   property tests verify against an exact sorted reference.

   Everything a sketch accumulates is order-independent by
   construction: bucket counts and the total are integer sums, the
   running sum is kept in integer micro-units (each observation rounded
   once, deterministically), and min/max commute.  Merging per-trial
   sketches therefore reaches the same bytes whatever the merge order
   or pool width — the bit-identity contract the rest of the
   observability plane already obeys. *)

type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  counts : (int, int ref) Hashtbl.t;  (* bucket index -> count *)
  mutable zero : int;  (* observations <= 0 *)
  mutable total : int;
  mutable sum_micro : int;  (* sum scaled by 1e6, rounded per observation *)
  mutable v_min : float;
  mutable v_max : float;
}

let default_alpha = 0.01

let create ?(alpha = default_alpha) () =
  if alpha <= 0. || alpha >= 1. then
    invalid_arg "Sketch.create: alpha must be in (0, 1)";
  let gamma = (1. +. alpha) /. (1. -. alpha) in
  {
    alpha;
    gamma;
    log_gamma = log gamma;
    counts = Hashtbl.create 64;
    zero = 0;
    total = 0;
    sum_micro = 0;
    v_min = infinity;
    v_max = neg_infinity;
  }

let alpha t = t.alpha

let count t = t.total

let sum t = float_of_int t.sum_micro /. 1e6

let min_value t = if t.total = 0 then 0. else t.v_min

let max_value t = if t.total = 0 then 0. else t.v_max

let bucket_of t x = int_of_float (Float.ceil (log x /. t.log_gamma))

let bucket_value t i = 2. *. (t.gamma ** float_of_int i) /. (t.gamma +. 1.)

let add t x =
  if Float.is_nan x then ()
  else begin
    (if x <= 0. then t.zero <- t.zero + 1
     else begin
       let i = bucket_of t x in
       match Hashtbl.find_opt t.counts i with
       | Some r -> incr r
       | None -> Hashtbl.add t.counts i (ref 1)
     end);
    t.total <- t.total + 1;
    t.sum_micro <- t.sum_micro + int_of_float (Float.round (x *. 1e6));
    if x < t.v_min then t.v_min <- x;
    if x > t.v_max then t.v_max <- x
  end

let merge_into ~dst src =
  if dst.alpha <> src.alpha then
    invalid_arg "Sketch.merge_into: alpha mismatch";
  Hashtbl.iter
    (fun i r ->
      match Hashtbl.find_opt dst.counts i with
      | Some d -> d := !d + !r
      | None -> Hashtbl.add dst.counts i (ref !r))
    src.counts;
  dst.zero <- dst.zero + src.zero;
  dst.total <- dst.total + src.total;
  dst.sum_micro <- dst.sum_micro + src.sum_micro;
  if src.v_min < dst.v_min then dst.v_min <- src.v_min;
  if src.v_max > dst.v_max then dst.v_max <- src.v_max

let clear t =
  Hashtbl.reset t.counts;
  t.zero <- 0;
  t.total <- 0;
  t.sum_micro <- 0;
  t.v_min <- infinity;
  t.v_max <- neg_infinity

let merge a b =
  let t = create ~alpha:a.alpha () in
  merge_into ~dst:t a;
  merge_into ~dst:t b;
  t

let copy t =
  let c = create ~alpha:t.alpha () in
  merge_into ~dst:c t;
  c

(* Sorted (bucket, count) pairs; the canonical order every renderer
   uses, so equal sketches always print equal bytes. *)
let sorted_buckets t =
  Hashtbl.fold (fun i r acc -> (i, !r) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Sketch.quantile: q outside [0, 1]";
  if t.total = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int (t.total - 1))) in
    if rank < t.zero then 0.
    else begin
      let cum = ref t.zero in
      let result = ref t.v_max in
      (try
         List.iter
           (fun (i, c) ->
             cum := !cum + c;
             if !cum > rank then begin
               result := bucket_value t i;
               raise Exit
             end)
           (sorted_buckets t)
       with Exit -> ());
      (* Clamping to the observed extremes never violates the error
         bound (the true quantile lies inside them) and keeps p0/p100
         exact. *)
      Float.min (Float.max !result t.v_min) t.v_max
    end
  end

(* %.9g with integral values as integers — matches Metrics.float_string
   so sketch summaries and gauges read alike. *)
let float_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let encode t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "a=%s;n=%d;z=%d;s=%d;min=%s;max=%s|" (float_string t.alpha)
    t.total t.zero t.sum_micro
    (float_string (min_value t))
    (float_string (max_value t));
  List.iteri
    (fun j (i, c) ->
      if j > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "%d:%d" i c)
    (sorted_buckets t);
  Buffer.contents buf

let snapshot_json t =
  let q l = float_string (quantile t l) in
  Printf.sprintf
    "{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p95\":%s,\"p99\":%s,\"p999\":%s}"
    t.total (float_string (sum t))
    (float_string (min_value t))
    (float_string (max_value t))
    (q 0.5) (q 0.9) (q 0.95) (q 0.99) (q 0.999)
