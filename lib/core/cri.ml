open Ri_util
open Ri_content

(* Peer rows live in a flat structure-of-arrays store: one contiguous
   float array holds every row as [total; by_topic...] ([1 + width]
   slots), resolved through {!Rowstore}.  [Summary.t] remains the
   boundary type — construction, exports and tests speak summaries; the
   aggregation and ranking hot paths run straight over the flat array.
   The store iterates rows in the same hash-table order as the boxed
   representation it replaced, keeping float summation bit-identical. *)
type t = {
  width : int;
  mutable local : Summary.t;
  store : Rowstore.t;
}

let check_width t s name =
  if Summary.topics s <> t.width then
    invalid_arg (Printf.sprintf "Cri.%s: summary width mismatch" name)

let create ?rows ~width ~local () =
  if width <= 0 then invalid_arg "Cri.create: width must be positive";
  let t = { width; local; store = Rowstore.create ?rows ~stride:(1 + width) () } in
  check_width t local "create";
  t

let store t = t.store

let width t = t.width

let local t = t.local

(* Summaries are immutable once built (set_local replaces the field, it
   never mutates the value), so the clone shares [local] and deep-copies
   only the row store. *)
let copy t = { t with store = Rowstore.copy t.store }

let set_local t s =
  check_width t s "set_local";
  t.local <- s

(* In-place install: no boxed row is retained, so a row update allocates
   nothing beyond the payload the caller already holds. *)
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

(* Accumulate in place straight off the flat store, in the row table's
   iteration order (the bit-identity contract — see {!Rowstore}).  The
   running total lives in a one-cell float array: a float ref captured
   by the iteration closure would box on every add. *)
let aggregate_with_local t =
  let by_topic = Array.copy t.local.Summary.by_topic in
  let total = [| t.local.Summary.total |] in
  let d = Rowstore.data t.store in
  Rowstore.iter t.store (fun _ off ->
      total.(0) <- total.(0) +. d.(off);
      Vecf.add_slice ~dst:by_topic ~dst_pos:0 d ~src_pos:(off + 1) ~len:t.width);
  { Summary.total = total.(0); by_topic }

(* Aggregate minus one flat row, clamped: valid because the row is a
   term of the aggregate, so the difference is non-negative up to float
   rounding.  Built without [Summary.make]'s defensive copy/validate —
   this runs per peer per export. *)
let minus_row t (all : Summary.t) off =
  let by_topic = Array.copy all.Summary.by_topic in
  let d = Rowstore.data t.store in
  Vecf.sub_clamp_slice ~dst:by_topic ~dst_pos:0 d ~src_pos:(off + 1) ~len:t.width;
  let total = all.Summary.total -. d.(off) in
  { Summary.total = (if total > 0. then total else 0.); by_topic }

let export t ~exclude =
  let all = aggregate_with_local t in
  match exclude with
  | None -> all
  | Some peer -> (
      match Rowstore.find t.store peer with
      | None -> all
      | Some off -> minus_row t all off)

(* Each peer's export is an independent function of the shared
   aggregate, so skipping the [except] peers is bit-identical to
   filtering after the fact.  Update waves call this twice per
   delivered message (pre/post), always excluding the sender. *)
let export_except t ~except f =
  let all = aggregate_with_local t in
  Rowstore.map_sorted t.store ~except (fun p off -> f p (minus_row t all off))

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
