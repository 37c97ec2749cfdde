(* The scheme-polymorphic RI wrapper and payload utilities. *)

open Ri_content
open Ri_core

let s total by = Summary.make ~total ~by_topic:by

let kinds =
  [
    Scheme.Cri_kind;
    Scheme.Hri_kind { horizon = 3; fanout = 4. };
    Scheme.Eri_kind { fanout = 4. };
    Scheme.Hybrid_kind { horizon = 3; fanout = 4. };
  ]

let test_kind_roundtrip () =
  List.iter
    (fun k ->
      let t = Scheme.create k ~width:2 ~local:(Summary.zero ~topics:2) in
      Alcotest.(check bool) "kind preserved" true (Scheme.kind t = k);
      Alcotest.(check int) "width" 2 (Scheme.width t))
    kinds

let test_kind_names () =
  Alcotest.(check string) "cri" "CRI" (Scheme.kind_name Scheme.Cri_kind);
  Alcotest.(check string) "hri" "HRI"
    (Scheme.kind_name (Scheme.Hri_kind { horizon = 5; fanout = 4. }));
  Alcotest.(check string) "eri" "ERI"
    (Scheme.kind_name (Scheme.Eri_kind { fanout = 4. }));
  Alcotest.(check string) "hybrid" "HYB"
    (Scheme.kind_name (Scheme.Hybrid_kind { horizon = 5; fanout = 4. }))

let test_shape_mismatch () =
  let cri = Scheme.create Scheme.Cri_kind ~width:2 ~local:(Summary.zero ~topics:2) in
  Alcotest.check_raises "hop vector into CRI"
    (Invalid_argument "Scheme.set_row: payload shape does not match the scheme")
    (fun () ->
      Scheme.set_row cri ~peer:1 (Scheme.Hop_vector [| Summary.zero ~topics:2 |]));
  let hri =
    Scheme.create (Scheme.Hri_kind { horizon = 2; fanout = 4. }) ~width:2
      ~local:(Summary.zero ~topics:2)
  in
  Alcotest.check_raises "vector into HRI"
    (Invalid_argument "Scheme.set_row: payload shape does not match the scheme")
    (fun () -> Scheme.set_row hri ~peer:1 (Scheme.Vector (Summary.zero ~topics:2)))

let test_rank_orders_by_goodness () =
  let t = Scheme.create Scheme.Cri_kind ~width:1 ~local:(Summary.zero ~topics:1) in
  Scheme.set_row t ~peer:1 (Scheme.Vector (s 10. [| 2. |]));
  Scheme.set_row t ~peer:2 (Scheme.Vector (s 10. [| 9. |]));
  Scheme.set_row t ~peer:3 (Scheme.Vector (s 10. [| 5. |]));
  let ranked = Scheme.rank t ~query:[ 0 ] ~exclude:[] in
  Alcotest.(check (list int)) "descending goodness" [ 2; 3; 1 ]
    (List.map fst ranked);
  let without_two = Scheme.rank t ~query:[ 0 ] ~exclude:[ 2 ] in
  Alcotest.(check (list int)) "exclusion respected" [ 3; 1 ]
    (List.map fst without_two)

let test_rank_tie_break_deterministic () =
  let t = Scheme.create Scheme.Cri_kind ~width:1 ~local:(Summary.zero ~topics:1) in
  Scheme.set_row t ~peer:5 (Scheme.Vector (s 10. [| 3. |]));
  Scheme.set_row t ~peer:1 (Scheme.Vector (s 10. [| 3. |]));
  let ranked = Scheme.rank t ~query:[ 0 ] ~exclude:[] in
  Alcotest.(check (list int)) "smaller id first on ties" [ 1; 5 ]
    (List.map fst ranked)

let test_payload_zero () =
  Alcotest.(check int) "vector entries" 4
    (Scheme.payload_entries (Scheme.payload_zero Scheme.Cri_kind ~width:3));
  Alcotest.(check int) "hop entries" 12
    (Scheme.payload_entries
       (Scheme.payload_zero (Scheme.Hri_kind { horizon = 3; fanout = 4. }) ~width:3))

let test_payload_diffs () =
  let a = Scheme.Vector (s 100. [| 50. |]) in
  let b = Scheme.Vector (s 102. [| 50. |]) in
  Alcotest.(check (float 1e-9)) "rel" 0.02 (Scheme.payload_rel_diff a b);
  Alcotest.(check (float 1e-9)) "distance" 2. (Scheme.payload_distance a b);
  let h1 = Scheme.Hop_vector [| s 1. [| 1. |]; s 2. [| 2. |] |] in
  let h2 = Scheme.Hop_vector [| s 1. [| 1. |]; s 2. [| 5. |] |] in
  Alcotest.(check (float 1e-9)) "hop distance" 3. (Scheme.payload_distance h1 h2);
  Alcotest.(check (float 1e-9)) "shape mismatch rel" infinity
    (Scheme.payload_rel_diff a h1);
  Alcotest.(check (float 1e-9)) "shape mismatch distance" infinity
    (Scheme.payload_distance a h1);
  Alcotest.(check (float 1e-9)) "hop length mismatch" infinity
    (Scheme.payload_distance h1 (Scheme.Hop_vector [| s 1. [| 1. |] |]))

let test_payload_total () =
  Alcotest.(check (float 1e-9)) "vector" 100.
    (Scheme.payload_total (Scheme.Vector (s 100. [| 1. |])));
  Alcotest.(check (float 1e-9)) "hops summed" 3.
    (Scheme.payload_total (Scheme.Hop_vector [| s 1. [| 1. |]; s 2. [| 2. |] |]))

let test_unified_export_matches_underlying () =
  (* The wrapper's CRI export equals Figure 5's vector. *)
  let t =
    Scheme.create Scheme.Cri_kind ~width:4
      ~local:(s 300. [| 30.; 80.; 0.; 10. |])
  in
  Scheme.set_row t ~peer:1 (Scheme.Vector (s 100. [| 20.; 0.; 10.; 30. |]));
  Scheme.set_row t ~peer:2 (Scheme.Vector (s 1000. [| 0.; 300.; 0.; 50. |]));
  match Scheme.export t ~exclude:None with
  | Scheme.Vector e ->
      Alcotest.(check (float 1e-9)) "total" 1400. e.Summary.total;
      Alcotest.(check (float 1e-9)) "networks" 380. (Summary.get e 1)
  | Scheme.Hop_vector _ -> Alcotest.fail "expected a vector"

let test_perturb_preserves_shape () =
  let rng = Ri_util.Prng.create 4 in
  let h = Scheme.Hop_vector [| s 10. [| 10. |]; s 20. [| 20. |] |] in
  match
    Scheme.payload_perturb rng ~relative_stddev:0.1 ~kind:Compression.Overcount h
  with
  | Scheme.Hop_vector r ->
      Alcotest.(check int) "length" 2 (Array.length r);
      Alcotest.(check bool) "overcounted" true (Summary.get r.(0) 0 >= 10.)
  | Scheme.Vector _ -> Alcotest.fail "shape changed"

let prop_export_all_agrees_with_export =
  QCheck.Test.make ~name:"export_all agrees with per-peer export (all kinds)"
    ~count:60
    QCheck.(pair (int_range 0 3) (list_of_size Gen.(int_range 1 6) (float_range 0. 50.)))
    (fun (kind_ix, vals) ->
      let kind = List.nth kinds kind_ix in
      let width = 2 in
      let t = Scheme.create kind ~width ~local:(s 3. [| 1.; 2. |]) in
      List.iteri
        (fun i v ->
          let payload =
            match kind with
            | Scheme.Hri_kind { horizon; _ } ->
                Scheme.Hop_vector
                  (Array.init horizon (fun h ->
                       s (v +. float_of_int h) [| v; float_of_int h |]))
            | Scheme.Hybrid_kind { horizon; _ } ->
                Scheme.Hop_vector
                  (Array.init (horizon + 1) (fun h ->
                       s (v +. float_of_int h) [| v; float_of_int h |]))
            | Scheme.Cri_kind | Scheme.Eri_kind _ ->
                Scheme.Vector (s v [| v /. 2.; v /. 2. |])
          in
          Scheme.set_row t ~peer:i payload)
        vals;
      List.for_all
        (fun (peer, batch) ->
          Scheme.payload_distance batch (Scheme.export t ~exclude:(Some peer))
          < 1e-6)
        (Scheme.export_all t))

(* ------------------------------------------------------------------ *)
(* Bit pins for the update wave's kernels.  Each reference below is    *)
(* the boxed, closure-based form of a kernel the wave runs per         *)
(* delivered message, kept verbatim; the library's version must return *)
(* the same bits on every input.                                       *)

let same_bits = Test_summary.same_bits

let summary_bits (a : Summary.t) (b : Summary.t) =
  same_bits a.Summary.total b.Summary.total
  && Array.length a.Summary.by_topic = Array.length b.Summary.by_topic
  && Array.for_all2 same_bits a.Summary.by_topic b.Summary.by_topic

let payload_bits a b =
  match (a, b) with
  | Scheme.Vector x, Scheme.Vector y -> summary_bits x y
  | Scheme.Hop_vector x, Scheme.Hop_vector y ->
      Array.length x = Array.length y && Array.for_all2 summary_bits x y
  | Scheme.Vector _, Scheme.Hop_vector _ | Scheme.Hop_vector _, Scheme.Vector _
    ->
      false

let ref_summary_exceeds_rel (x : Summary.t) (y : Summary.t) ~threshold =
  let exceeds old_ new_ =
    Float.abs (new_ -. old_) /. Float.max (Float.abs old_) 1. > threshold
  in
  Summary.topics x <> Summary.topics y
  || exceeds x.Summary.total y.Summary.total
  ||
  let xb = x.Summary.by_topic and yb = y.Summary.by_topic in
  let n = Array.length xb in
  let rec go i = i < n && (exceeds xb.(i) yb.(i) || go (i + 1)) in
  go 0

let ref_payload_exceeds_rel a b ~threshold =
  match (a, b) with
  | Scheme.Vector x, Scheme.Vector y -> ref_summary_exceeds_rel x y ~threshold
  | Scheme.Hop_vector x, Scheme.Hop_vector y ->
      Array.length x <> Array.length y
      ||
      let n = Array.length x in
      let rec go i =
        i < n && (ref_summary_exceeds_rel x.(i) y.(i) ~threshold || go (i + 1))
      in
      go 0
  | Scheme.Vector _, Scheme.Hop_vector _ | Scheme.Hop_vector _, Scheme.Vector _
    ->
      true

let ref_payload_distance a b =
  match (a, b) with
  | Scheme.Vector x, Scheme.Vector y -> Test_summary.ref_euclidean_distance x y
  | Scheme.Hop_vector x, Scheme.Hop_vector y ->
      if Array.length x <> Array.length y then infinity
      else begin
        let acc = ref 0. in
        Array.iteri
          (fun i sx ->
            let d = Test_summary.ref_euclidean_distance sx y.(i) in
            acc := !acc +. (d *. d))
          x;
        sqrt !acc
      end
  | Scheme.Vector _, Scheme.Hop_vector _ | Scheme.Hop_vector _, Scheme.Vector _
    ->
      infinity

(* The relative change of one entry, computed exactly as the kernels
   compute it: a threshold equal to it sits exactly on the boundary. *)
let rel_change old_ new_ =
  Float.abs (new_ -. old_) /. Float.max (Float.abs old_) 1.

(* Payload pairs: CRI/ERI vectors, HRI (3 slots) and hybrid (4 slots)
   hop vectors, each side drawn from [Test_summary.summary_pair_gen]'s
   shapes (equal, all-zero, near-equal, unrelated); now and then a
   shape or slot-count mismatch.  The threshold is either drawn or set
   exactly at one entry's relative change. *)
let payload_case_gen =
  QCheck.Gen.(
    let* slots = oneofl [ 0; 3; 4 ] in
    let* pairs =
      list_repeat (max 1 slots) Test_summary.summary_pair_gen
    in
    let width = Summary.topics (fst (List.hd pairs)) in
    let pairs =
      List.map
        (fun (a, b) ->
          (* Hop slots share the first pair's width. *)
          let fit (s : Summary.t) =
            Summary.make ~total:s.Summary.total
              ~by_topic:
                (Array.init width (fun i ->
                     if i < Summary.topics s then s.Summary.by_topic.(i) else 0.))
          in
          (fit a, fit b))
        pairs
    in
    let a, b =
      if slots = 0 then
        let x, y = List.hd pairs in
        (Scheme.Vector x, Scheme.Vector y)
      else
        ( Scheme.Hop_vector (Array.of_list (List.map fst pairs)),
          Scheme.Hop_vector (Array.of_list (List.map snd pairs)) )
    in
    let* mismatch = int_range 0 9 in
    let b =
      match (mismatch, b) with
      | 0, Scheme.Vector y -> Scheme.Hop_vector [| y |]
      | 0, Scheme.Hop_vector y -> Scheme.Hop_vector (Array.sub y 0 (slots - 1))
      | _ -> b
    in
    let* exact = bool in
    let+ threshold =
      if not exact then float_range 0. 0.2
      else
        let x, y = List.hd pairs in
        let+ i = int_range 0 width in
        if i = 0 then rel_change x.Summary.total y.Summary.total
        else rel_change x.Summary.by_topic.(i - 1) y.Summary.by_topic.(i - 1)
    in
    (a, b, threshold))

let pp_payload ppf = function
  | Scheme.Vector s -> Summary.pp ppf s
  | Scheme.Hop_vector r ->
      Format.fprintf ppf "[|%a|]"
        (Format.pp_print_array
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           Summary.pp)
        r

let payload_case =
  QCheck.make
    ~print:(fun (a, b, th) ->
      Format.asprintf "%a / %a @ %h" pp_payload a pp_payload b th)
    payload_case_gen

let prop_exceeds_rel_matches_reference =
  QCheck.Test.make ~name:"payload_exceeds_rel matches the reference"
    ~count:1000 payload_case (fun (a, b, threshold) ->
      Scheme.payload_exceeds_rel a b ~threshold
      = ref_payload_exceeds_rel a b ~threshold
      && Scheme.payload_exceeds_rel b a ~threshold
         = ref_payload_exceeds_rel b a ~threshold)

let prop_distance_bits =
  QCheck.Test.make ~name:"payload_distance bits match the reference"
    ~count:1000 payload_case (fun (a, b, _) ->
      same_bits (Scheme.payload_distance a b) (ref_payload_distance a b)
      && same_bits (Scheme.payload_distance a a) (ref_payload_distance a a))

let test_threshold_boundary () =
  (* 1/100 rounds to the literal 0.01, so the change sits exactly on
     the threshold and is not significant; one ULP less and it is. *)
  let a = Scheme.Vector (s 100. [| 50. |]) and b = Scheme.Vector (s 101. [| 50. |]) in
  Alcotest.(check bool) "at threshold" false
    (Scheme.payload_exceeds_rel a b ~threshold:0.01);
  Alcotest.(check bool) "just below" true
    (Scheme.payload_exceeds_rel a b ~threshold:(Float.pred 0.01));
  let h x = Scheme.Hop_vector [| s 1. [| 1. |]; s 100. [| x |] |] in
  Alcotest.(check bool) "hop at threshold" false
    (Scheme.payload_exceeds_rel (h 100.) (h 101.) ~threshold:0.01);
  Alcotest.(check bool) "hop just below" true
    (Scheme.payload_exceeds_rel (h 100.) (h 101.) ~threshold:(Float.pred 0.01))

(* Reference exports: the per-scheme aggregate, per-peer subtraction
   and hop shift, ported operation for operation over the public
   rowstore API (same iteration order, same per-slot arithmetic).
   [exports t] returns the export for "no excluded row" ([None]) or for
   excluding the row at an offset. *)
module Ref_export = struct
  open Ri_util

  let rows store ~f =
    let d = Rowstore.data store in
    Rowstore.iter store (fun _ off -> f d off)

  let row_at store off = (Rowstore.data store, off)

  (* CRI: local plus every row; minus one row, clamped. *)
  let cri width (local : Summary.t) store =
    let by_topic = Array.copy local.Summary.by_topic in
    let total = ref local.Summary.total in
    rows store ~f:(fun d off ->
        total := !total +. d.(off);
        Vecf.add_slice ~dst:by_topic ~dst_pos:0 d ~src_pos:(off + 1) ~len:width);
    let all = { Summary.total = !total; by_topic } in
    function
    | None -> Scheme.Vector all
    | Some off ->
        let by_topic = Array.copy all.Summary.by_topic in
        let d, pos = row_at store off in
        Vecf.sub_clamp_slice ~dst:by_topic ~dst_pos:0 d ~src_pos:(pos + 1)
          ~len:width;
        let total = all.Summary.total -. d.(pos) in
        Scheme.Vector
          { Summary.total = (if total > 0. then total else 0.); by_topic }

  (* ERI: local + (rows - row) / F, fused per entry. *)
  let eri fanout width (local : Summary.t) store =
    let by_topic = Array.make width 0. in
    let total = ref 0. in
    rows store ~f:(fun d off ->
        total := !total +. d.(off);
        Vecf.add_slice ~dst:by_topic ~dst_pos:0 d ~src_pos:(off + 1) ~len:width);
    let agg = { Summary.total = !total; by_topic } in
    let k = 1. /. fanout in
    let lbt = local.Summary.by_topic and abt = agg.Summary.by_topic in
    function
    | None ->
        let by_topic = Array.make width 0. in
        for i = 0 to width - 1 do
          by_topic.(i) <- lbt.(i) +. (abt.(i) *. k)
        done;
        Scheme.Vector
          {
            Summary.total = local.Summary.total +. (agg.Summary.total *. k);
            by_topic;
          }
    | Some off ->
        let by_topic = Array.make width 0. in
        let d, pos = row_at store off in
        for i = 0 to width - 1 do
          let diff = abt.(i) -. d.(pos + 1 + i) in
          by_topic.(i) <- lbt.(i) +. ((if diff > 0. then diff else 0.) *. k)
        done;
        let dt = agg.Summary.total -. d.(pos) in
        Scheme.Vector
          {
            Summary.total =
              local.Summary.total +. ((if dt > 0. then dt else 0.) *. k);
            by_topic;
          }

  (* HRI and hybrid: per-slot sums, per-slot clamped subtraction, then
     the one-hop shift (plain HRI drops the last slot, the hybrid folds
     it into the tail). *)
  let hri ~tail ~horizon width (local : Summary.t) store =
    let len = horizon + if tail then 1 else 0 in
    let sw = 1 + width in
    let totals = Array.make len 0. in
    let by_topic = Array.init len (fun _ -> Array.make width 0.) in
    rows store ~f:(fun d off ->
        for h = 0 to len - 1 do
          let pos = off + (h * sw) in
          totals.(h) <- totals.(h) +. d.(pos);
          Vecf.add_slice ~dst:by_topic.(h) ~dst_pos:0 d ~src_pos:(pos + 1)
            ~len:width
        done);
    let agg =
      Array.init len (fun h ->
          { Summary.total = totals.(h); by_topic = by_topic.(h) })
    in
    let shift agg =
      if not tail then
        Array.init horizon (fun h -> if h = 0 then local else agg.(h - 1))
      else
        Array.init (horizon + 1) (fun h ->
            if h = 0 then local
            else if h < horizon then agg.(h - 1)
            else Summary.add agg.(horizon - 1) agg.(horizon))
    in
    function
    | None -> Scheme.Hop_vector (shift agg)
    | Some off ->
        let d, base = row_at store off in
        Scheme.Hop_vector
          (shift
             (Array.mapi
                (fun h (s : Summary.t) ->
                  let pos = base + (h * sw) in
                  let by_topic = Array.copy s.Summary.by_topic in
                  Vecf.sub_clamp_slice ~dst:by_topic ~dst_pos:0 d
                    ~src_pos:(pos + 1) ~len:width;
                  let total = s.Summary.total -. d.(pos) in
                  { Summary.total = (if total > 0. then total else 0.); by_topic })
                agg))

  let exports t =
    let store = Scheme.rowstore t
    and width = Scheme.width t
    and local = Scheme.local t in
    match Scheme.kind t with
    | Scheme.Cri_kind -> cri width local store
    | Scheme.Eri_kind { fanout } -> eri fanout width local store
    | Scheme.Hri_kind { horizon; _ } -> hri ~tail:false ~horizon width local store
    | Scheme.Hybrid_kind { horizon; _ } ->
        hri ~tail:true ~horizon width local store

  let export t ~exclude =
    let f = exports t in
    match exclude with
    | None -> f None
    | Some p -> f (Rowstore.find (Scheme.rowstore t) p)

  let export_except t ~except =
    let f = exports t in
    let store = Scheme.rowstore t in
    Rowstore.peers store
    |> List.filter_map (fun p ->
           if List.mem p except then None else Some (p, f (Rowstore.find store p)))
end

let exports_bits a b =
  List.length a = List.length b
  && List.for_all2
       (fun (p, x) (q, y) -> p = q && payload_bits x y)
       a b

(* One node's index: [rows] are (peer, all-zero?, magnitude) and later
   writes to a peer overwrite earlier ones; [removed] drops a row again,
   so freed slots and a mutated peer table are exercised too. *)
let export_case_gen =
  QCheck.Gen.(
    let* kind_ix = int_range 0 3 in
    let* rows =
      list_size (int_range 0 8)
        (triple (int_range 0 9) (frequencyl [ (1, true); (4, false) ])
           (float_range 0. 500.))
    in
    let* removed = opt (int_range 0 9) in
    let* except = list_size (int_range 0 3) (int_range 0 9) in
    let+ local = float_range 0. 100. in
    (kind_ix, rows, removed, except, local))

let build_index (kind_ix, rows, removed, _, local) =
  let width = 3 in
  let kind = List.nth kinds kind_ix in
  let t =
    Scheme.create kind ~width
      ~local:(s local [| local /. 3.; local *. 0.7; 0. |])
  in
  let summary zero v =
    if zero then Summary.zero ~topics:width
    else s (v *. 1.37) [| v /. 3.; v *. 0.29; v *. 1.01 |]
  in
  List.iter
    (fun (peer, zero, v) ->
      let payload =
        match kind with
        | Scheme.Hri_kind { horizon; _ } ->
            Scheme.Hop_vector
              (Array.init horizon (fun h ->
                   summary zero (v +. (float_of_int h *. 1.1))))
        | Scheme.Hybrid_kind { horizon; _ } ->
            Scheme.Hop_vector
              (Array.init (horizon + 1) (fun h ->
                   summary zero (v +. (float_of_int h *. 1.1))))
        | Scheme.Cri_kind | Scheme.Eri_kind _ -> Scheme.Vector (summary zero v)
      in
      Scheme.set_row t ~peer payload)
    rows;
  Option.iter (fun peer -> Scheme.remove_row t ~peer) removed;
  t

let export_case =
  QCheck.make
    ~print:(fun (k, rows, removed, except, local) ->
      Printf.sprintf "kind %d local %h rows [%s] removed %s except [%s]"
        k local
        (String.concat "; "
           (List.map
              (fun (p, z, v) -> Printf.sprintf "(%d, %b, %h)" p z v)
              rows))
        (match removed with Some p -> string_of_int p | None -> "-")
        (String.concat "; " (List.map string_of_int except)))
    export_case_gen

(* Reference goodness from the boxed row: [Estimator.goodness] of the
   summary for CRI and ERI; for HRI and the hybrid, the per-slot
   estimates discounted by [Cost_model.hop_count_goodness] (the tail
   slot counts as hop [horizon + 1]). *)
let ref_goodness t ~peer ~query =
  match Scheme.row t ~peer with
  | None -> 0.
  | Some (Scheme.Vector s) -> Estimator.goodness s query
  | Some (Scheme.Hop_vector r) ->
      let fanout =
        match Scheme.kind t with
        | Scheme.Hri_kind { fanout; _ } | Scheme.Hybrid_kind { fanout; _ } ->
            fanout
        | Scheme.Cri_kind | Scheme.Eri_kind _ ->
            invalid_arg "ref_goodness: hop row in a one-slot scheme"
      in
      Cost_model.hop_count_goodness (Cost_model.make ~fanout)
        ~per_hop_goodness:(Array.map (fun s -> Estimator.goodness s query) r)

(* [goodness] for peers 0-9 (rows and absent peers) and every value
   [iter_goodness] reports, bit for bit against the reference; the
   reported peers are exactly the ones with a row. *)
let goodness_bits t =
  List.for_all
    (fun query ->
      let reported = Hashtbl.create 16 in
      Scheme.iter_goodness t ~query (fun p g -> Hashtbl.replace reported p g);
      List.sort Int.compare (Hashtbl.fold (fun p _ acc -> p :: acc) reported [])
      = Scheme.peers t
      && List.for_all
           (fun peer ->
             let want = ref_goodness t ~peer ~query in
             same_bits (Scheme.goodness t ~peer ~query) want
             &&
             match Hashtbl.find_opt reported peer with
             | Some g -> same_bits g want
             | None -> true)
           (List.init 10 Fun.id))
    [ []; [ 0 ]; [ 2 ]; [ 0; 1 ]; [ 1; 2; 0 ] ]

let prop_exports_bits =
  QCheck.Test.make
    ~name:"export, export_all and export_except bits match the reference"
    ~count:400 export_case (fun case ->
      let (_, _, _, except, _) = case in
      let t = build_index case in
      exports_bits (Scheme.export_all t) (Ref_export.export_except t ~except:[])
      && exports_bits
           (Scheme.export_except t ~except)
           (Ref_export.export_except t ~except)
      && List.for_all
           (fun exclude ->
             payload_bits
               (Scheme.export t ~exclude)
               (Ref_export.export t ~exclude))
           (None :: List.init 10 Option.some)
      && goodness_bits t)

(* The flat kernel a bulk build writes rows with: every peer's export
   and the whole export, staged in one array and boxed back, carry the
   reference's bits. *)
let prop_blit_exports_bits =
  QCheck.Test.make ~name:"blit_exports bits match the reference" ~count:400
    export_case (fun case ->
      let t = build_index case in
      let stride = Rowstore.stride (Scheme.rowstore t) in
      let peers = Array.of_list (Scheme.peers t) in
      let n = Array.length peers in
      let slot p =
        let rec find i = if peers.(i) = p then i else find (i + 1) in
        find 0 * stride
      in
      let dst = Array.make ((n + 1) * stride) Float.nan in
      Scheme.blit_exports t ~work:(Array.make stride Float.nan) ~all:(n * stride)
        slot dst;
      payload_bits (Scheme.payload_at t dst (n * stride)) (Ref_export.export t ~exclude:None)
      && Array.for_all
           (fun p ->
             payload_bits
               (Scheme.payload_at t dst (slot p))
               (Ref_export.export t ~exclude:(Some p)))
           peers)

(* Allocation guard for the per-delivery kernels: after a warm-up call,
   1000 calls must allocate nothing of their own.  A kernel returning a
   float hands back one boxed float (2 words) — the native calling
   convention boxes every float result that crosses a module boundary
   uninlined — so that is all it may allocate; a captured ref or a
   per-slot call would cost far more. *)
let calls = 1000

let minor_words_of f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  Gc.minor_words () -. w0

let boxed_float_words = 2.

let test_kernels_do_not_allocate () =
  let width = 30 in
  let row k = s (100. *. k) (Array.init width (fun i -> float_of_int (i + 1) *. k)) in
  let pairs =
    [
      ("vector", Scheme.Vector (row 1.), Scheme.Vector (row 1.5));
      ("equal vectors", Scheme.Vector (row 1.), Scheme.Vector (row 1.));
      ( "hop vector",
        Scheme.Hop_vector (Array.init 5 (fun h -> row (float_of_int (h + 1)))),
        Scheme.Hop_vector
          (Array.init 5 (fun h -> row (float_of_int (h + 1) *. 1.001))) );
      ( "equal hop vectors",
        Scheme.Hop_vector (Array.init 5 (fun h -> row (float_of_int h))),
        Scheme.Hop_vector (Array.init 5 (fun h -> row (float_of_int h))) );
    ]
  in
  List.iter
    (fun (name, a, b) ->
      let no_alloc what f =
        Alcotest.(check (float 0.)) (name ^ " " ^ what) 0. (minor_words_of f)
      in
      let one_box what f =
        let w = minor_words_of f in
        if w > boxed_float_words *. float_of_int calls then
          Alcotest.failf "%s %s: %.0f words over %d calls" name what w calls
      in
      no_alloc "payload_exceeds_rel" (fun () ->
          ignore (Sys.opaque_identity (Scheme.payload_exceeds_rel a b ~threshold:0.01)));
      no_alloc "payload_exceeds_rel (no entry over)" (fun () ->
          ignore
            (Sys.opaque_identity (Scheme.payload_exceeds_rel a b ~threshold:1e9)));
      one_box "payload_distance" (fun () ->
          ignore (Sys.opaque_identity (Scheme.payload_distance a b)));
      match (a, b) with
      | Scheme.Vector x, Scheme.Vector y ->
          one_box "euclidean_distance" (fun () ->
              ignore (Sys.opaque_identity (Summary.euclidean_distance x y)))
      | _ -> ())
    pairs

let suite =
  ( "scheme",
    [
      Alcotest.test_case "kind roundtrip" `Quick test_kind_roundtrip;
      Alcotest.test_case "kind names" `Quick test_kind_names;
      Alcotest.test_case "shape mismatch" `Quick test_shape_mismatch;
      Alcotest.test_case "rank by goodness" `Quick test_rank_orders_by_goodness;
      Alcotest.test_case "rank tie break" `Quick test_rank_tie_break_deterministic;
      Alcotest.test_case "payload zero" `Quick test_payload_zero;
      Alcotest.test_case "payload diffs" `Quick test_payload_diffs;
      Alcotest.test_case "payload total" `Quick test_payload_total;
      Alcotest.test_case "unified export" `Quick test_unified_export_matches_underlying;
      Alcotest.test_case "perturb shape" `Quick test_perturb_preserves_shape;
      QCheck_alcotest.to_alcotest prop_export_all_agrees_with_export;
      Alcotest.test_case "threshold boundary" `Quick test_threshold_boundary;
      QCheck_alcotest.to_alcotest prop_exceeds_rel_matches_reference;
      QCheck_alcotest.to_alcotest prop_distance_bits;
      QCheck_alcotest.to_alcotest prop_exports_bits;
      QCheck_alcotest.to_alcotest prop_blit_exports_bits;
      Alcotest.test_case "kernels do not allocate" `Quick
        test_kernels_do_not_allocate;
    ] )
