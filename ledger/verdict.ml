(* Order statistics and the parent-versus-change verdict.

   Quartiles follow Python's [statistics.quantiles(values, n=4)]
   (the "exclusive" method), so a spread computed here matches one
   computed from the same samples with the standard library. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (s.(0), s.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)
  end

(* Interquartile distance as a share of the median. *)
let spread a =
  let q1, q3 = quartiles a in
  (q3 -. q1) /. Float.abs (median a)

type t = Better | Worse | Unchanged | Unresolved

let name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* One (workload, metric) pair, from the samples of each side.

   - Worse: the change's median is worse than the parent's by more than
     [bound] (a share of the parent's median) and by more than [floor]
     in absolute terms.
   - Where the parent's own spread is wider than the bound, the pair is
     Unresolved unless every change run beats (or loses to) every
     parent run.
   - Better: the change wins at least nine tenths of the runs paired in
     order, and its median gains more than the parent's spread.
   - Otherwise Unchanged. *)
let judge ~better ~bound ?(floor = 0.) ~parent ~change () =
  let worse_than a b = match better with Schema.Lower -> a > b | Schema.Higher -> a < b in
  let pm = median parent and cm = median change in
  let loss = match better with Schema.Lower -> cm -. pm | Schema.Higher -> pm -. cm in
  let rel = loss /. Float.abs pm in
  let every f = Array.for_all (fun c -> Array.for_all (fun p -> f c p) parent) change in
  let all_better = every (fun c p -> worse_than p c) in
  let all_worse = every (fun c p -> worse_than c p) in
  let pairs = min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if worse_than parent.(i) change.(i) then incr wins
  done;
  let regressed = rel > bound && Float.abs loss > floor in
  if spread parent > bound then
    if all_better then Better else if all_worse && regressed then Worse else Unresolved
  else if regressed then Worse
  else if
    -.rel > spread parent && pairs > 0
    && float_of_int !wins >= 0.9 *. float_of_int pairs
  then Better
  else Unchanged

(* A count that must repeat exactly: any difference is a verdict. *)
let exact ~better ~parent ~change =
  if parent = change then Unchanged
  else
    match better with
    | Schema.Lower -> if change < parent then Better else Worse
    | Schema.Higher -> if change > parent then Better else Worse
