open Ri_util
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

type payload = Vector of Summary.t | Hop_vector of Summary.t array

(* Summaries per row: one for CRI and ERI, one per hop up to the horizon
   for HRI, plus the beyond-horizon tail for the hybrid. *)
let slots = function
  | Cri_kind | Eri_kind _ -> 1
  | Hri_kind { horizon; _ } -> horizon
  | Hybrid_kind { horizon; _ } -> horizon + 1

(* Every kind keeps its peer rows in one flat {!Rowstore}: a row is
   [slots kind] summaries back to back, each [total; by_topic...]
   ([1 + width] floats), slot [h] at [off + h * (1 + width)].  [Summary.t]
   stays the boundary type — construction, exports and tests speak
   summaries — while aggregation and ranking run straight over the flat
   array, in the row table's iteration order (the bit-identity contract,
   see {!Rowstore}). *)
type t = {
  kind : kind;
  width : int;
  cost : Cost_model.t option;
      (* HRI and the hybrid: the regular-tree discount their goodness
         applies per hop slot *)
  mutable local : Summary.t;
  store : Rowstore.t;
}

let check_width t s name =
  if Summary.topics s <> t.width then
    invalid_arg (Printf.sprintf "Scheme.%s: summary width mismatch" name)

let create ?rows kind ~width ~local =
  if width <= 0 then invalid_arg "Scheme.create: width must be positive";
  let cost =
    match kind with
    | Cri_kind -> None
    | Eri_kind { fanout } ->
        if not (fanout > 1.) then invalid_arg "Scheme.create: fanout must be > 1";
        None
    | Hri_kind { horizon; fanout } | Hybrid_kind { horizon; fanout } ->
        if horizon <= 0 then invalid_arg "Scheme.create: horizon must be positive";
        Some (Cost_model.make ~fanout)
  in
  let t =
    {
      kind;
      width;
      cost;
      local;
      store = Rowstore.create ?rows ~stride:(slots kind * (1 + width)) ();
    }
  in
  check_width t local "create";
  t

let rowstore t = t.store

let kind t = t.kind

let width t = t.width

let local t = t.local

let set_local t s =
  check_width t s "set_local";
  t.local <- s

let blit_summary (s : Summary.t) dst pos =
  dst.(pos) <- s.Summary.total;
  Array.blit s.Summary.by_topic 0 dst (pos + 1) (Array.length s.Summary.by_topic)

let blit_payload payload dst pos =
  match payload with
  | Vector s -> blit_summary s dst pos
  | Hop_vector r ->
      for h = 0 to Array.length r - 1 do
        blit_summary r.(h) dst (pos + (h * (1 + Summary.topics r.(h))))
      done

(* In-place install: no boxed row is retained, so a row update
   allocates nothing beyond the payload the caller already holds. *)
let set_row t ~peer payload =
  (match (t.kind, payload) with
  | (Cri_kind | Eri_kind _), Vector s -> check_width t s "set_row"
  | (Hri_kind _ | Hybrid_kind _), Hop_vector r ->
      if Array.length r <> slots t.kind then
        invalid_arg "Scheme.set_row: row length must equal the horizon";
      Array.iter (fun s -> check_width t s "set_row") r
  | (Cri_kind | Eri_kind _), Hop_vector _ | (Hri_kind _ | Hybrid_kind _), Vector _
    ->
      invalid_arg "Scheme.set_row: payload shape does not match the scheme");
  (* [ensure] may grow the store, so the backing array is read after it. *)
  let off = Rowstore.ensure t.store peer in
  blit_payload payload (Rowstore.data t.store) off

let slot_summary t d pos =
  { Summary.total = d.(pos); by_topic = Array.sub d (pos + 1) t.width }

let payload_at t d off =
  match t.kind with
  | Cri_kind | Eri_kind _ -> Vector (slot_summary t d off)
  | Hri_kind _ | Hybrid_kind _ ->
      let sw = 1 + t.width in
      Hop_vector
        (Array.init (slots t.kind) (fun h -> slot_summary t d (off + (h * sw))))

let row t ~peer =
  Option.map (payload_at t (Rowstore.data t.store)) (Rowstore.find t.store peer)

let remove_row t ~peer = Rowstore.remove t.store peer

let stamp_row t ~peer wave = Rowstore.set_stamp t.store peer wave

let row_stamp t ~peer = Rowstore.stamp t.store peer

let peers t = Rowstore.peers t.store

let peer_count t = Rowstore.count t.store

(* {2 Export kernels}

   Each export is an independent function of one shared aggregate, so
   [export_except] skipping its [except] peers is bit-identical to
   filtering after the fact.  Update waves call it twice per delivered
   message (pre/post), always excluding the sender. *)

(* [total] and [by_topic] plus slot 0 of every row, accumulated in
   place straight off the flat store in row table order.  The running
   total lives in a one-cell float array: a float ref captured by the
   iteration closure would box on every add. *)
let sum_rows t ~total by_topic =
  let total = [| total |] in
  let d = Rowstore.data t.store in
  Rowstore.iter t.store (fun _ off ->
      total.(0) <- total.(0) +. d.(off);
      Vecf.add_slice ~dst:by_topic ~dst_pos:0 d ~src_pos:(off + 1) ~len:t.width);
  { Summary.total = total.(0); by_topic }

(* CRI (Section 4.2): aggregation "is done by adding all the vectors in
   the RI", the local summary included. *)
let cri_aggregate t =
  sum_rows t ~total:t.local.Summary.total (Array.copy t.local.Summary.by_topic)

(* An aggregate [s] minus the row slot at [pos], clamped: valid because
   the slot is a term of the aggregate, so the difference is
   non-negative up to float rounding.  Built without [Summary.make]'s
   defensive copy/validate — this runs per peer per export. *)
let minus_slot t (s : Summary.t) pos =
  let by_topic = Array.copy s.Summary.by_topic in
  let d = Rowstore.data t.store in
  Vecf.sub_clamp_slice ~dst:by_topic ~dst_pos:0 d ~src_pos:(pos + 1) ~len:t.width;
  let total = s.Summary.total -. d.(pos) in
  { Summary.total = (if total > 0. then total else 0.); by_topic }

(* ERI (Section 6.2): "adds up all rows (except the one associated with
   the neighbor to which the update vector is sent), multiplies the
   resulting vector by 1/F, and adds the goodness of the summary of its
   local index".  [eri_finish t ~fanout rest] is local + rest/F, fused
   into one pass: the intermediate summaries (minus, scale, add) would
   triple the allocation. *)
let eri_finish t ~fanout (rest : Summary.t) =
  let k = 1. /. fanout in
  let local = t.local in
  let lbt = local.Summary.by_topic and rbt = rest.Summary.by_topic in
  let by_topic = Array.make t.width 0. in
  for i = 0 to t.width - 1 do
    by_topic.(i) <- lbt.(i) +. (rbt.(i) *. k)
  done;
  { Summary.total = local.Summary.total +. (rest.Summary.total *. k); by_topic }

(* local + (agg - row)/F in a single pass over the flat row. *)
let eri_finish_without t ~fanout (agg : Summary.t) off =
  let k = 1. /. fanout in
  let local = t.local in
  let lbt = local.Summary.by_topic and abt = agg.Summary.by_topic in
  let by_topic = Array.make t.width 0. in
  let d = Rowstore.data t.store in
  for i = 0 to t.width - 1 do
    let diff = abt.(i) -. d.(off + 1 + i) in
    by_topic.(i) <- lbt.(i) +. ((if diff > 0. then diff else 0.) *. k)
  done;
  let dt = agg.Summary.total -. d.(off) in
  {
    Summary.total =
      local.Summary.total +. ((if dt > 0. then dt else 0.) *. k);
    by_topic;
  }

(* HRI (Section 6.1): "it shifts the columns to the right, so the
   entries for 1 hop become the entries for 2 hops ... The entries in
   the last column of the original RI are discarded and the summary of
   the local index is placed as the first column".  The hybrid merges
   that last column into its tail slot instead, so the compound-style
   aggregate beyond the horizon stays complete.

   [hri_aggregate t ~live] sums the first [live] columns of all rows
   (the ones an export reads: [horizon - 1] for plain HRI, every
   [horizon + 1] for the hybrid), one allocation per column instead of
   one per (row, column).  The columns come back one hop outward, as an
   export lays them out: slot 0 is the local summary and slot [h + 1]
   is column [h]. *)
let hri_aggregate t ~live =
  let sw = 1 + t.width in
  let totals = Array.make live 0. in
  let by_topic = Array.init live (fun _ -> Array.make t.width 0.) in
  let d = Rowstore.data t.store in
  Rowstore.iter t.store (fun _ off ->
      for h = 0 to live - 1 do
        let pos = off + (h * sw) in
        totals.(h) <- totals.(h) +. d.(pos);
        Vecf.add_slice ~dst:by_topic.(h) ~dst_pos:0 d ~src_pos:(pos + 1)
          ~len:t.width
      done);
  Array.init (live + 1) (fun h ->
      if h = 0 then t.local
      else { Summary.total = totals.(h - 1); by_topic = by_topic.(h - 1) })

(* Shift the aggregate one hop outward: slot 0 is the local summary and
   slot [h] is [column (h - 1)]. *)
let shifted t ~horizon ~tail column =
  if not tail then
    Array.init horizon (fun h -> if h = 0 then t.local else column (h - 1))
  else
    Array.init (horizon + 1) (fun h ->
        if h = 0 then t.local
        else if h < horizon then column (h - 1)
        else Summary.add (column (horizon - 1)) (column horizon))

(* The export toward the peer whose row sits at [off]: each live
   aggregate column minus that row's column, clamped, shifted. *)
let hri_without t ~horizon ~tail agg off =
  let sw = 1 + t.width in
  shifted t ~horizon ~tail (fun h -> minus_slot t agg.(h + 1) (off + (h * sw)))

(* Without an excluded row, plain HRI's export is the shifted aggregate
   itself: its last column has already fallen off the horizon. *)
let export t ~exclude =
  let row =
    match exclude with None -> None | Some peer -> Rowstore.find t.store peer
  in
  match t.kind with
  | Cri_kind -> (
      let all = cri_aggregate t in
      match row with None -> Vector all | Some off -> Vector (minus_slot t all off))
  | Eri_kind { fanout } -> (
      let agg = sum_rows t ~total:0. (Array.make t.width 0.) in
      match row with
      | None -> Vector (eri_finish t ~fanout agg)
      | Some off -> Vector (eri_finish_without t ~fanout agg off))
  | Hri_kind { horizon; _ } -> (
      let agg = hri_aggregate t ~live:(horizon - 1) in
      match row with
      | None -> Hop_vector agg
      | Some off -> Hop_vector (hri_without t ~horizon ~tail:false agg off))
  | Hybrid_kind { horizon; _ } -> (
      let agg = hri_aggregate t ~live:(horizon + 1) in
      match row with
      | None -> Hop_vector (shifted t ~horizon ~tail:true (fun h -> agg.(h + 1)))
      | Some off -> Hop_vector (hri_without t ~horizon ~tail:true agg off))

(* Each export is wrapped into its payload as it is built, so the
   returned list is the only one allocated. *)
let export_except t ~except =
  match t.kind with
  | Cri_kind ->
      let all = cri_aggregate t in
      Rowstore.map_sorted t.store ~except (fun p off ->
          (p, Vector (minus_slot t all off)))
  | Eri_kind { fanout } ->
      let agg = sum_rows t ~total:0. (Array.make t.width 0.) in
      Rowstore.map_sorted t.store ~except (fun p off ->
          (p, Vector (eri_finish_without t ~fanout agg off)))
  | Hri_kind { horizon; _ } ->
      let agg = hri_aggregate t ~live:(horizon - 1) in
      Rowstore.map_sorted t.store ~except (fun p off ->
          (p, Hop_vector (hri_without t ~horizon ~tail:false agg off)))
  | Hybrid_kind { horizon; _ } ->
      let agg = hri_aggregate t ~live:(horizon + 1) in
      Rowstore.map_sorted t.store ~except (fun p off ->
          (p, Hop_vector (hri_without t ~horizon ~tail:true agg off)))

let export_all t = export_except t ~except:[]

let[@inline] clamp_sub a b =
  let x = a -. b in
  if x > 0. then x else 0.

(* Cell [at] of an aggregate in [work], less the row at [off] (clamped,
   as [minus_slot] does) or whole when [off < 0]. *)
let[@inline] cell work d off at =
  if off < 0 then work.(at) else clamp_sub work.(at) d.(off + at)

(* One export into [dst] from [q]: each cell is the expression its boxed
   kernel evaluates ([cri_aggregate] or [minus_slot], [eri_finish] or
   [eri_finish_without], [hri_aggregate] or [hri_without]). *)
let blit_export t work d off dst q =
  let sw = 1 + t.width in
  let local = t.local in
  match t.kind with
  | Cri_kind ->
      for c = 0 to sw - 1 do
        dst.(q + c) <- cell work d off c
      done
  | Eri_kind { fanout } ->
      let k = 1. /. fanout in
      dst.(q) <- local.Summary.total +. (cell work d off 0 *. k);
      for c = 1 to sw - 1 do
        dst.(q + c) <- local.Summary.by_topic.(c - 1) +. (cell work d off c *. k)
      done
  | Hri_kind { horizon; _ } | Hybrid_kind { horizon; _ } -> (
      (* Slot 0 is the local summary, hop slot [h] column [h - 1]. *)
      blit_summary local dst q;
      for at = 0 to ((horizon - 1) * sw) - 1 do
        dst.(q + sw + at) <- cell work d off at
      done;
      match t.kind with
      | Hybrid_kind _ ->
          (* The tail slot: the last hop column plus the tail column. *)
          let a = (horizon - 1) * sw in
          for c = 0 to sw - 1 do
            dst.(q + (horizon * sw) + c) <-
              cell work d off (a + c) +. cell work d off (a + sw + c)
          done
      | Cri_kind | Eri_kind _ | Hri_kind _ -> ())

(* The flat form of [export] for bulk builds that stage rows in their
   own arrays.  The aggregate's [live] columns accumulate into [work] in
   row-table order, as [sum_rows] and [hri_aggregate] do, so every float
   keeps its bits, and nothing is boxed per row. *)
let blit_exports t ~work ?all pos dst =
  let sw = 1 + t.width in
  let d = Rowstore.data t.store in
  let live =
    match t.kind with
    | Cri_kind | Eri_kind _ -> 1
    | Hri_kind { horizon; _ } -> horizon - 1
    | Hybrid_kind { horizon; _ } -> horizon + 1
  in
  Array.fill work 0 (live * sw) 0.;
  (match t.kind with
  | Cri_kind -> blit_summary t.local work 0
  | Eri_kind _ | Hri_kind _ | Hybrid_kind _ -> ());
  Rowstore.iter t.store (fun _ off ->
      for h = 0 to live - 1 do
        let at = h * sw in
        work.(at) <- work.(at) +. d.(off + at);
        Vecf.add_slice ~dst:work ~dst_pos:(at + 1) d ~src_pos:(off + at + 1)
          ~len:t.width
      done);
  (match all with Some q -> blit_export t work d (-1) dst q | None -> ());
  Rowstore.iter t.store (fun p off ->
      let q = pos p in
      if q >= 0 then blit_export t work d off dst q)

(* HRI's goodness (Section 6.1), [Σ_j goodness(N[j], Q) / F^(j-1)] with
   the hybrid's tail slot discounted as if everything in it were
   [horizon + 1] hops away.  Per-hop goodness runs straight over the
   flat row — no intermediate per-hop array — accumulating in the same
   slot order as the boxed [Cost_model.hop_count_goodness]. *)
let hop_goodness t cost d ~off query =
  let sw = 1 + t.width in
  let acc = ref 0. in
  for h = 0 to slots t.kind - 1 do
    let g = Estimator.goodness_flat d ~pos:(off + (h * sw)) ~width:t.width query in
    acc := !acc +. (g *. Cost_model.discount cost ~hop:(h + 1))
  done;
  !acc

let goodness t ~peer ~query =
  match Rowstore.find t.store peer with
  | None -> 0.
  | Some off -> (
      let d = Rowstore.data t.store in
      match t.cost with
      | None -> Estimator.goodness_flat d ~pos:off ~width:t.width query
      | Some cost -> hop_goodness t cost d ~off query)

let iter_goodness t ~query f =
  let d = Rowstore.data t.store in
  match t.cost with
  | None ->
      Rowstore.iter t.store (fun p off ->
          f p (Estimator.goodness_flat d ~pos:off ~width:t.width query))
  | Some cost ->
      Rowstore.iter t.store (fun p off -> f p (hop_goodness t cost d ~off query))

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
  | Hri_kind _ | Hybrid_kind _ ->
      Hop_vector (Array.init (slots k) (fun _ -> Summary.zero ~topics:width))

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
  (* One local-summary row plus one row per neighbor. *)
  (neighbors + 1) * slots k * (1 + width)

(* The local summary row plus the peer-row store's allocated cells. *)
let storage_bytes t =
  (8 * (1 + width t)) + Rowstore.capacity_bytes (rowstore t)

let payload_perturb rng ~relative_stddev ~kind payload =
  let f = Compression.perturb rng ~relative_stddev ~kind in
  match payload with
  | Vector s -> Vector (f s)
  | Hop_vector r -> Hop_vector (Array.map f r)
