open Ri_util
open Ri_content

(* Rows in a flat structure-of-arrays store, [total; by_topic...] per
   peer — see {!Cri} for the layout and the bit-identity contract.
   [Summary.t] stays the boundary type for exports and tests. *)
type t = {
  fanout : float;
  width : int;
  mutable local : Summary.t;
  store : Rowstore.t;
}

let check_width t s name =
  if Summary.topics s <> t.width then
    invalid_arg (Printf.sprintf "Eri.%s: summary width mismatch" name)

let create ?rows ~fanout ~width ~local () =
  if not (fanout > 1.) then invalid_arg "Eri.create: fanout must be > 1";
  if width <= 0 then invalid_arg "Eri.create: width must be positive";
  let t =
    {
      fanout;
      width;
      local;
      store = Rowstore.create ?rows ~stride:(1 + width) ();
    }
  in
  check_width t local "create";
  t

let store t = t.store

let fanout t = t.fanout

let width t = t.width

let local t = t.local

let copy t = { t with store = Rowstore.copy t.store }

let set_local t s =
  check_width t s "set_local";
  t.local <- s

let set_row t ~peer (s : Summary.t) =
  check_width t s "set_row";
  let off = Rowstore.ensure t.store peer in
  let d = Rowstore.data t.store in
  d.(off) <- s.total;
  Array.blit s.by_topic 0 d (off + 1) t.width

let row t ~peer =
  match Rowstore.find t.store peer with
  | None -> None
  | Some off ->
      let d = Rowstore.data t.store in
      Some { Summary.total = d.(off); by_topic = Array.sub d (off + 1) t.width }

let remove_row t ~peer = Rowstore.remove t.store peer

let stamp_row t ~peer wave = Rowstore.set_stamp t.store peer wave

let row_stamp t ~peer = Rowstore.stamp t.store peer

let peers t = Rowstore.peers t.store

let peer_count t = Rowstore.count t.store

let storage_words t = 1 + t.width + Rowstore.capacity_words t.store

(* One allocation per aggregate, accumulated off the flat store in row
   table order (the bit-identity contract).  The running total sits in
   a one-cell float array so the iteration closure never boxes it. *)
let aggregate_rows t =
  let by_topic = Array.make t.width 0. in
  let total = [| 0. |] in
  let d = Rowstore.data t.store in
  Rowstore.iter t.store (fun _ off ->
      total.(0) <- total.(0) +. d.(off);
      Vecf.add_slice ~dst:by_topic ~dst_pos:0 d ~src_pos:(off + 1) ~len:t.width);
  { Summary.total = total.(0); by_topic }

(* [finish t rest] is local + rest/F.  Fused into one pass: exports run
   per peer per wave message, and the intermediate summaries (minus,
   scale, add) would triple the allocation. *)
let finish t (rest : Summary.t) =
  let k = 1. /. t.fanout in
  let local = t.local in
  let lbt = local.Summary.by_topic and rbt = rest.Summary.by_topic in
  let by_topic = Array.make t.width 0. in
  for i = 0 to t.width - 1 do
    by_topic.(i) <- lbt.(i) +. (rbt.(i) *. k)
  done;
  { Summary.total = local.Summary.total +. (rest.Summary.total *. k); by_topic }

(* local + (agg - row)/F in a single pass over the flat row. *)
let finish_without t (agg : Summary.t) off =
  let k = 1. /. t.fanout in
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

let export t ~exclude =
  let agg = aggregate_rows t in
  match exclude with
  | None -> finish t agg
  | Some peer -> (
      match Rowstore.find t.store peer with
      | None -> finish t agg
      | Some off -> finish_without t agg off)

(* See {!Cri.export_except}: per-peer exports are independent given the
   aggregate, so skipping the [except] peers is bit-identical. *)
let export_except t ~except f =
  let agg = aggregate_rows t in
  Rowstore.map_sorted t.store ~except (fun p off ->
      f p (finish_without t agg off))

let export_all t = export_except t ~except:[] (fun p s -> (p, s))

let goodness t ~peer ~query =
  match Rowstore.find t.store peer with
  | None -> 0.
  | Some off ->
      Estimator.goodness_flat (Rowstore.data t.store) ~pos:off ~width:t.width
        query

let iter_goodness t ~query f =
  let d = Rowstore.data t.store in
  Rowstore.iter t.store (fun p off ->
      f p (Estimator.goodness_flat d ~pos:off ~width:t.width query))
