open Ri_content

type kind =
  | Cri_kind
  | Hri_kind of { horizon : int; fanout : float }
  | Eri_kind of { fanout : float }
  | Hybrid_kind of { horizon : int; fanout : float }

let kind_name = function
  | Cri_kind -> "CRI"
  | Hri_kind _ -> "HRI"
  | Eri_kind _ -> "ERI"
  | Hybrid_kind _ -> "HYB"

let pp_kind ppf = function
  | Cri_kind -> Format.pp_print_string ppf "CRI"
  | Hri_kind { horizon; fanout } ->
      Format.fprintf ppf "HRI(horizon=%d, F=%g)" horizon fanout
  | Eri_kind { fanout } -> Format.fprintf ppf "ERI(F=%g)" fanout
  | Hybrid_kind { horizon; fanout } ->
      Format.fprintf ppf "HYB(horizon=%d, F=%g)" horizon fanout

type payload = Vector of Summary.t | Hop_vector of Summary.t array

type t = C of Cri.t | H of Hri.t | E of Eri.t

let create ?rows k ~width ~local =
  match k with
  | Cri_kind -> C (Cri.create ?rows ~width ~local ())
  | Hri_kind { horizon; fanout } ->
      H
        (Hri.create ?rows ~horizon ~cost:(Cost_model.make ~fanout) ~width
           ~local ())
  | Hybrid_kind { horizon; fanout } ->
      H
        (Hri.create_hybrid ?rows ~horizon ~cost:(Cost_model.make ~fanout)
           ~width ~local ())
  | Eri_kind { fanout } -> E (Eri.create ?rows ~fanout ~width ~local ())

let rowstore = function
  | C c -> Cri.store c
  | H h -> Hri.store h
  | E e -> Eri.store e

let kind = function
  | C _ -> Cri_kind
  | H h ->
      let horizon = Hri.horizon h
      and fanout = Cost_model.fanout (Hri.cost_model h) in
      if Hri.has_tail h then Hybrid_kind { horizon; fanout }
      else Hri_kind { horizon; fanout }
  | E e -> Eri_kind { fanout = Eri.fanout e }

let width = function
  | C c -> Cri.width c
  | H h -> Hri.width h
  | E e -> Eri.width e

let local = function
  | C c -> Cri.local c
  | H h -> Hri.local h
  | E e -> Eri.local e

let copy = function
  | C c -> C (Cri.copy c)
  | H h -> H (Hri.copy h)
  | E e -> E (Eri.copy e)

let set_local t s =
  match t with
  | C c -> Cri.set_local c s
  | H h -> Hri.set_local h s
  | E e -> Eri.set_local e s

let shape_error () =
  invalid_arg "Scheme.set_row: payload shape does not match the scheme"

let set_row t ~peer payload =
  match (t, payload) with
  | C c, Vector s -> Cri.set_row c ~peer s
  | H h, Hop_vector r -> Hri.set_row h ~peer r
  | E e, Vector s -> Eri.set_row e ~peer s
  | (C _ | E _), Hop_vector _ | H _, Vector _ -> shape_error ()

let row t ~peer =
  match t with
  | C c -> Option.map (fun s -> Vector s) (Cri.row c ~peer)
  | H h -> Option.map (fun r -> Hop_vector r) (Hri.row h ~peer)
  | E e -> Option.map (fun s -> Vector s) (Eri.row e ~peer)

let remove_row t ~peer =
  match t with
  | C c -> Cri.remove_row c ~peer
  | H h -> Hri.remove_row h ~peer
  | E e -> Eri.remove_row e ~peer

let stamp_row t ~peer wave =
  match t with
  | C c -> Cri.stamp_row c ~peer wave
  | H h -> Hri.stamp_row h ~peer wave
  | E e -> Eri.stamp_row e ~peer wave

let row_stamp t ~peer =
  match t with
  | C c -> Cri.row_stamp c ~peer
  | H h -> Hri.row_stamp h ~peer
  | E e -> Eri.row_stamp e ~peer

let peers = function
  | C c -> Cri.peers c
  | H h -> Hri.peers h
  | E e -> Eri.peers e

let export t ~exclude =
  match t with
  | C c -> Vector (Cri.export c ~exclude)
  | H h -> Hop_vector (Hri.export h ~exclude)
  | E e -> Vector (Eri.export e ~exclude)

(* Each scheme wraps its exports into payloads as it builds them, so
   the returned list is the only one allocated. *)
let export_except t ~except =
  match t with
  | C c -> Cri.export_except c ~except (fun p s -> (p, Vector s))
  | H h -> Hri.export_except h ~except (fun p r -> (p, Hop_vector r))
  | E e -> Eri.export_except e ~except (fun p s -> (p, Vector s))

let export_all t = export_except t ~except:[]

let goodness t ~peer ~query =
  match t with
  | C c -> Cri.goodness c ~peer ~query
  | H h -> Hri.goodness h ~peer ~query
  | E e -> Eri.goodness e ~peer ~query

let peer_count = function
  | C c -> Cri.peer_count c
  | H h -> Hri.peer_count h
  | E e -> Eri.peer_count e

let iter_goodness t ~query f =
  match t with
  | C c -> Cri.iter_goodness c ~query f
  | H h -> Hri.iter_goodness h ~query f
  | E e -> Eri.iter_goodness e ~query f

(* Goodness descending, peer id ascending: a total order over distinct
   peers, so the ranking is independent of row iteration order. *)
let compare_ranked (p1, g1) (p2, g2) =
  match Float.compare g2 g1 with 0 -> Int.compare p1 p2 | c -> c

let rank_array t ~query ~keep =
  let buf = Array.make (peer_count t) (0, 0.) in
  let count = ref 0 in
  iter_goodness t ~query (fun p g ->
      if keep p then begin
        buf.(!count) <- (p, g);
        incr count
      end);
  let arr = if !count = Array.length buf then buf else Array.sub buf 0 !count in
  Array.sort compare_ranked arr;
  arr

let rank_peers t ~query ~keep =
  Array.fold_right (fun (p, _) acc -> p :: acc) (rank_array t ~query ~keep) []

let rank t ~query ~exclude =
  (* Exclude lists are tiny (typically 0-2 entries): specialize the
     common shapes into direct comparisons so the closure allocates no
     intermediate structure at all, and fall back to a list scan (ints
     compare physically) for longer lists. *)
  let keep =
    match exclude with
    | [] -> fun _ -> true
    | [ a ] -> fun p -> p <> a
    | [ a; b ] -> fun p -> p <> a && p <> b
    | excl -> fun p -> not (List.memq p excl)
  in
  Array.to_list (rank_array t ~query ~keep)

let payload_zero k ~width =
  match k with
  | Cri_kind | Eri_kind _ -> Vector (Summary.zero ~topics:width)
  | Hri_kind { horizon; _ } ->
      Hop_vector (Array.init horizon (fun _ -> Summary.zero ~topics:width))
  | Hybrid_kind { horizon; _ } ->
      Hop_vector (Array.init (horizon + 1) (fun _ -> Summary.zero ~topics:width))

let payload_rel_diff a b =
  match (a, b) with
  | Vector x, Vector y -> Summary.max_rel_diff x y
  | Hop_vector x, Hop_vector y ->
      if Array.length x <> Array.length y then infinity
      else begin
        let worst = ref 0. in
        Array.iteri
          (fun i sx -> worst := Float.max !worst (Summary.max_rel_diff sx y.(i)))
          x;
        !worst
      end
  | Vector _, Hop_vector _ | Hop_vector _, Vector _ -> infinity

(* Early-exit form of [payload_rel_diff a b > threshold]: the max over
   entries exceeds the threshold iff some entry does, so the scan can
   stop at the first hit instead of computing the full max.  This is the
   significance test every delivered update message runs, so it is
   written as plain loops that box no float and build no closure.
   [if m < 1. then 1. else m] is [Float.max m 1.] for every [m = |old|],
   NaN included. *)
let[@inline] entry_exceeds old_ new_ ~threshold =
  let m = Float.abs old_ in
  Float.abs (new_ -. old_) /. (if m < 1. then 1. else m) > threshold

let summary_exceeds_rel (x : Summary.t) (y : Summary.t) ~threshold =
  Summary.topics x <> Summary.topics y
  || entry_exceeds x.Summary.total y.Summary.total ~threshold
  ||
  let xb = x.Summary.by_topic and yb = y.Summary.by_topic in
  let n = Array.length xb in
  let i = ref 0 in
  while !i < n && not (entry_exceeds xb.(!i) yb.(!i) ~threshold) do
    incr i
  done;
  !i < n

let payload_exceeds_rel a b ~threshold =
  match (a, b) with
  | Vector x, Vector y -> summary_exceeds_rel x y ~threshold
  | Hop_vector x, Hop_vector y ->
      Array.length x <> Array.length y
      ||
      let n = Array.length x in
      let h = ref 0 in
      while !h < n && not (summary_exceeds_rel x.(!h) y.(!h) ~threshold) do
        incr h
      done;
      !h < n
  | Vector _, Hop_vector _ | Hop_vector _, Vector _ ->
      (* A shape change is always significant. *)
      true

(* Entries whose value differs between two payloads of the same shape —
   what a sparse (index, delta) update encoding would ship.  A shape or
   width mismatch can only be sent dense: every entry counts. *)
let summary_changed_entries (x : Summary.t) (y : Summary.t) =
  if Summary.topics x <> Summary.topics y then 1 + Summary.topics y
  else begin
    let n = ref (if x.Summary.total <> y.Summary.total then 1 else 0) in
    let xb = x.Summary.by_topic and yb = y.Summary.by_topic in
    for i = 0 to Array.length xb - 1 do
      if xb.(i) <> yb.(i) then incr n
    done;
    !n
  end

let payload_entries = function
  | Vector s -> 1 + Summary.topics s
  | Hop_vector r ->
      if Array.length r = 0 then 0
      else Array.length r * (1 + Summary.topics r.(0))

let payload_changed_entries a b =
  match (a, b) with
  | Vector x, Vector y -> summary_changed_entries x y
  | Hop_vector x, Hop_vector y when Array.length x = Array.length y ->
      let acc = ref 0 in
      Array.iteri
        (fun i sx -> acc := !acc + summary_changed_entries sx y.(i))
        x;
      !acc
  | _ -> payload_entries b

(* The hop case inlines [Summary.euclidean_distance] per slot — same
   width check, same summation order, same [sqrt] then square — so no
   per-slot float is boxed on its way back across the module boundary. *)
let payload_distance a b =
  match (a, b) with
  | Vector x, Vector y -> Summary.euclidean_distance x y
  | Hop_vector x, Hop_vector y ->
      if Array.length x <> Array.length y then infinity
      else begin
        let acc = ref 0. in
        for h = 0 to Array.length x - 1 do
          let sx = x.(h) and sy = y.(h) in
          let xb = sx.Summary.by_topic and yb = sy.Summary.by_topic in
          if Array.length xb <> Array.length yb then
            invalid_arg "Summary.euclidean_distance: topic width mismatch";
          let d0 = sx.Summary.total -. sy.Summary.total in
          let sq = ref (0. +. (d0 *. d0)) in
          for i = 0 to Array.length xb - 1 do
            let d = xb.(i) -. yb.(i) in
            sq := !sq +. (d *. d)
          done;
          let d = sqrt !sq in
          acc := !acc +. (d *. d)
        done;
        sqrt !acc
      end
  | Vector _, Hop_vector _ | Hop_vector _, Vector _ -> infinity

let payload_total = function
  | Vector s -> s.Summary.total
  | Hop_vector r -> Array.fold_left (fun acc s -> acc +. s.Summary.total) 0. r

let storage_entries k ~width ~neighbors =
  if width <= 0 || neighbors < 0 then
    invalid_arg "Scheme.storage_entries: bad dimensions";
  let per_summary = 1 + width in
  let slots =
    match k with
    | Cri_kind | Eri_kind _ -> 1
    | Hri_kind { horizon; _ } -> horizon
    | Hybrid_kind { horizon; _ } -> horizon + 1
  in
  (* One local-summary row plus one row per neighbor. *)
  (neighbors + 1) * slots * per_summary

(* The local summary row plus the peer-row store's allocated cells. *)
let storage_bytes t =
  (8 * (1 + width t)) + Rowstore.capacity_bytes (rowstore t)

let payload_perturb rng ~relative_stddev ~kind payload =
  let f = Compression.perturb rng ~relative_stddev ~kind in
  match payload with
  | Vector s -> Vector (f s)
  | Hop_vector r -> Hop_vector (Array.map f r)
