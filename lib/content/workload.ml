open Ri_util

type query = { topics : Topic.id list; stop : int }

let query ~topics ~stop =
  if topics = [] then invalid_arg "Workload.query: empty topic list";
  if List.exists (fun t -> t < 0) topics then
    invalid_arg "Workload.query: negative topic id";
  if stop <= 0 then invalid_arg "Workload.query: stop must be positive";
  { topics = List.sort_uniq compare topics; stop }

let single t ~stop = query ~topics:[ t ] ~stop

let random_single rng universe ~stop =
  single (Prng.int rng (Topic.count universe)) ~stop

module Zipf = struct
  type t = {
    universe : Topic.t;
    exponent : float;
    shift_every : int;
    cdf : float array;  (* cumulative rank probabilities, last entry 1. *)
    mutable draws : int;
  }

  let create ?(exponent = 1.0) ?(shift_every = 0) universe =
    if Float.is_nan exponent || exponent < 0. then
      invalid_arg "Workload.Zipf.create: exponent must be >= 0";
    if shift_every < 0 then
      invalid_arg "Workload.Zipf.create: shift_every must be >= 0";
    let n = Topic.count universe in
    let cdf = Array.make n 0. in
    let total = ref 0. in
    for r = 0 to n - 1 do
      total := !total +. (1. /. Float.pow (float_of_int (r + 1)) exponent);
      cdf.(r) <- !total
    done;
    for r = 0 to n - 1 do
      cdf.(r) <- cdf.(r) /. !total
    done;
    (* Guard against float fuzz at the top of the table: the last slot
       must catch every draw. *)
    cdf.(n - 1) <- 1.;
    { universe; exponent; shift_every; cdf; draws = 0 }

  let pmf t =
    Array.mapi
      (fun r c -> if r = 0 then c else c -. t.cdf.(r - 1))
      t.cdf

  let draws t = t.draws

  let shift t = if t.shift_every = 0 then 0 else t.draws / t.shift_every

  let topic_of_rank t rank =
    (rank + shift t) mod Topic.count t.universe

  let draw t rng =
    let u = Prng.unit_float rng in
    (* First rank whose cumulative probability covers [u]. *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    let topic = topic_of_rank t !lo in
    t.draws <- t.draws + 1;
    topic

  let query t rng ~stop = single (draw t rng) ~stop
end

let poisson_next rng ~rate =
  if Float.is_nan rate || rate <= 0. then
    invalid_arg "Workload.poisson_next: rate must be positive";
  (* Inverse-CDF exponential inter-arrival; [1. -. u] keeps the log
     argument in (0, 1] so the gap is always finite and positive. *)
  -.Float.log (1. -. Prng.unit_float rng) /. rate

let pp universe ppf q =
  Format.fprintf ppf "@[<h>%s (stop=%d)@]"
    (String.concat " AND " (List.map (Topic.name universe) q.topics))
    q.stop
