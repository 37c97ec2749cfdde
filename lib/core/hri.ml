open Ri_util
open Ri_content

(* Hop-striped flat rows: each peer row is [row_length] summary slots
   laid out consecutively, slot [h] at [off + h * (1 + width)], each
   slot [total; by_topic...].  One contiguous float array holds every
   row — see {!Cri} for the store layout and {!Rowstore} for the
   bit-identity contract on iteration order. *)
type t = {
  horizon : int;
  tail : bool;  (* hybrid CRI-HRI: keep a beyond-horizon aggregate *)
  cost : Cost_model.t;
  width : int;
  mutable local : Summary.t;
  store : Rowstore.t;
}

let check_width t s name =
  if Summary.topics s <> t.width then
    invalid_arg (Printf.sprintf "Hri.%s: summary width mismatch" name)

let make_t ?rows ~tail ~horizon ~cost ~width ~local () =
  if horizon <= 0 then invalid_arg "Hri.create: horizon must be positive";
  if width <= 0 then invalid_arg "Hri.create: width must be positive";
  let slots = horizon + if tail then 1 else 0 in
  let t =
    {
      horizon;
      tail;
      cost;
      width;
      local;
      store = Rowstore.create ?rows ~stride:(slots * (1 + width)) ();
    }
  in
  check_width t local "create";
  t

let create ?rows ~horizon ~cost ~width ~local () =
  make_t ?rows ~tail:false ~horizon ~cost ~width ~local ()

let create_hybrid ?rows ~horizon ~cost ~width ~local () =
  make_t ?rows ~tail:true ~horizon ~cost ~width ~local ()

let store t = t.store

let copy t = { t with store = Rowstore.copy t.store }

let has_tail t = t.tail

let row_length t = t.horizon + if t.tail then 1 else 0

let horizon t = t.horizon

let cost_model t = t.cost

let width t = t.width

let local t = t.local

let set_local t s =
  check_width t s "set_local";
  t.local <- s

(* Summary slot width inside a row. *)
let sw t = 1 + t.width

let set_row t ~peer r =
  if Array.length r <> row_length t then
    invalid_arg "Hri.set_row: row length must equal the horizon";
  Array.iter (fun s -> check_width t s "set_row") r;
  let off = Rowstore.ensure t.store peer in
  let sw = sw t in
  let d = Rowstore.data t.store in
  Array.iteri
    (fun h (s : Summary.t) ->
      let pos = off + (h * sw) in
      d.(pos) <- s.total;
      Array.blit s.by_topic 0 d (pos + 1) t.width)
    r

let row t ~peer =
  match Rowstore.find t.store peer with
  | None -> None
  | Some off ->
      let sw = sw t in
      let d = Rowstore.data t.store in
      Some
        (Array.init (row_length t) (fun h ->
             let pos = off + (h * sw) in
             { Summary.total = d.(pos); by_topic = Array.sub d (pos + 1) t.width }))

let remove_row t ~peer = Rowstore.remove t.store peer

let stamp_row t ~peer wave = Rowstore.set_stamp t.store peer wave

let row_stamp t ~peer = Rowstore.stamp t.store peer

let peers t = Rowstore.peers t.store

let peer_count t = Rowstore.count t.store

let storage_words t = 1 + t.width + Rowstore.capacity_words t.store

(* The aggregate columns an export reads: slot [h] of an export is
   column [h-1], so plain HRI's last column always falls off the
   horizon, while the hybrid folds it into the tail slot. *)
let live_columns t = if t.tail then t.horizon + 1 else t.horizon - 1

(* Sum of all rows, per live column, accumulated off the flat store in
   row table order (the bit-identity contract): one allocation per
   column instead of one per (row, column).  The columns come back one
   hop outward, as an export lays them out: slot 0 is the local summary
   and slot [h + 1] is column [h]. *)
let aggregate_rows t =
  let len = live_columns t in
  let sw = sw t in
  let totals = Array.make len 0. in
  let by_topic = Array.init len (fun _ -> Array.make t.width 0.) in
  let d = Rowstore.data t.store in
  Rowstore.iter t.store (fun _ off ->
      for h = 0 to len - 1 do
        let pos = off + (h * sw) in
        totals.(h) <- totals.(h) +. d.(pos);
        Vecf.add_slice ~dst:by_topic.(h) ~dst_pos:0 d ~src_pos:(pos + 1)
          ~len:t.width
      done);
  Array.init (len + 1) (fun h ->
      if h = 0 then t.local
      else { Summary.total = totals.(h - 1); by_topic = by_topic.(h - 1) })

(* Shift the aggregate one hop outward: slot 0 is the local summary and
   slot [h] is [column (h - 1)].  Plain HRI discards the column that
   crosses the horizon; the hybrid merges it into the tail slot, so the
   compound-style aggregate beyond the horizon stays complete. *)
let shifted t column =
  if not t.tail then
    Array.init t.horizon (fun h -> if h = 0 then t.local else column (h - 1))
  else
    Array.init (t.horizon + 1) (fun h ->
        if h = 0 then t.local
        else if h < t.horizon then column (h - 1)
        else Summary.add (column (t.horizon - 1)) (column t.horizon))

(* The export toward the peer whose row sits at [off]: each live
   aggregate column minus that row's column, clamped, shifted — built
   without [Summary.make]'s copy/validate, per peer per export. *)
let export_without t agg off =
  let sw = sw t in
  let d = Rowstore.data t.store in
  shifted t (fun h ->
      let s = agg.(h + 1) and pos = off + (h * sw) in
      let by_topic = Array.copy s.Summary.by_topic in
      Vecf.sub_clamp_slice ~dst:by_topic ~dst_pos:0 d ~src_pos:(pos + 1)
        ~len:t.width;
      let total = s.Summary.total -. d.(pos) in
      { Summary.total = (if total > 0. then total else 0.); by_topic })

(* Without an excluded row, plain HRI's export is the shifted aggregate
   itself: its last column has already fallen off the horizon. *)
let export t ~exclude =
  let agg = aggregate_rows t in
  match Option.bind exclude (Rowstore.find t.store) with
  | None when not t.tail -> agg
  | None -> shifted t (fun h -> agg.(h + 1))
  | Some off -> export_without t agg off

(* See {!Cri.export_except}: per-peer exports are independent given the
   aggregate, so skipping the [except] peers is bit-identical. *)
let export_except t ~except f =
  let agg = aggregate_rows t in
  Rowstore.map_sorted t.store ~except (fun p off ->
      f p (export_without t agg off))

let export_all t = export_except t ~except:[] (fun p r -> (p, r))

(* In hybrid mode the tail slot sits at index [horizon] and is
   discounted as if everything in it were horizon+1 hops away.  Per-hop
   goodness runs straight over the flat row — no intermediate per-hop
   array — accumulating in the same slot order as the boxed
   [Cost_model.hop_count_goodness] pass did. *)
let goodness_at t d ~off query =
  let sw = sw t in
  let acc = ref 0. in
  for h = 0 to row_length t - 1 do
    let g = Estimator.goodness_flat d ~pos:(off + (h * sw)) ~width:t.width query in
    acc := !acc +. (g *. Cost_model.discount t.cost ~hop:(h + 1))
  done;
  !acc

let goodness t ~peer ~query =
  match Rowstore.find t.store peer with
  | None -> 0.
  | Some off -> goodness_at t (Rowstore.data t.store) ~off query

let iter_goodness t ~query f =
  let d = Rowstore.data t.store in
  Rowstore.iter t.store (fun p off -> f p (goodness_at t d ~off query))

let total_beyond_hop t ~peer ~hop =
  match Rowstore.find t.store peer with
  | None -> 0.
  | Some off ->
      let sw = sw t in
      let d = Rowstore.data t.store in
      let acc = ref 0. in
      for h = hop to row_length t - 1 do
        acc := !acc +. d.(off + (h * sw))
      done;
      !acc
