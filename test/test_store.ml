(* The flat structure-of-arrays row store against the boxed reference.

   The [Rowstore]-backed CRI/ERI replaced per-peer [Summary] hash
   tables under a bit-for-bit determinism contract: same float values,
   produced in the same summation order.  These tests hold the flat
   implementation to that contract by replaying random operation
   sequences against a boxed reference model that mirrors the old
   representation exactly — a peer -> [Summary] hash table created with
   the same initial size and mutated with the same key sequence — and
   demanding exact float equality (no epsilon) on every export. *)

open Ri_util
open Ri_content
open Ri_core

let exact = Alcotest.(array (float 0.))

let summary_exact =
  Alcotest.testable Summary.pp (fun (a : Summary.t) b ->
      a.Summary.total = b.Summary.total && a.Summary.by_topic = b.Summary.by_topic)

(* {2 Slice kernels vs boxed summary arithmetic} *)

let counts_gen width =
  QCheck.Gen.(array_size (return width) (float_range 0. 1000.))

(* Random rows embedded at a random offset inside a larger backing
   array, so the kernels are exercised as the store uses them: on
   interior slices, not whole arrays. *)
let slice_case =
  QCheck.make
    ~print:(fun (a, b, k, _) ->
      Printf.sprintf "a=%s b=%s k=%f"
        (String.concat "," (Array.to_list (Array.map string_of_float a)))
        (String.concat "," (Array.to_list (Array.map string_of_float b)))
        k)
    QCheck.Gen.(
      int_range 1 12 >>= fun width ->
      counts_gen width >>= fun a ->
      counts_gen width >>= fun b ->
      float_range 0. 4. >>= fun k ->
      int_range 0 7 >>= fun pad -> return (a, b, k, pad))

let embed pad row =
  let width = Array.length row in
  let backing = Array.make (pad + width + 3) Float.nan in
  Array.blit row 0 backing pad width;
  backing

let prop_add_slice =
  QCheck.Test.make ~name:"add_slice = Summary.add" ~count:300 slice_case
    (fun (a, b, _, pad) ->
      let width = Array.length a in
      let backing = embed pad a in
      Vecf.add_slice ~dst:backing ~dst_pos:pad b ~src_pos:0 ~len:width;
      let reference =
        Summary.add
          (Summary.make ~total:0. ~by_topic:a)
          (Summary.make ~total:0. ~by_topic:b)
      in
      Array.sub backing pad width = reference.Summary.by_topic)

let prop_sub_clamp_slice =
  QCheck.Test.make ~name:"sub_clamp_slice = Summary.sub" ~count:300 slice_case
    (fun (a, b, _, pad) ->
      let width = Array.length a in
      let backing = embed pad a in
      Vecf.sub_clamp_slice ~dst:backing ~dst_pos:pad b ~src_pos:0 ~len:width;
      let reference =
        Summary.sub
          (Summary.make ~total:0. ~by_topic:a)
          (Summary.make ~total:0. ~by_topic:b)
      in
      Array.sub backing pad width = reference.Summary.by_topic)

let prop_scale_slice =
  QCheck.Test.make ~name:"scale_slice = Summary.scale" ~count:300 slice_case
    (fun (a, _, k, pad) ->
      let width = Array.length a in
      let backing = embed pad a in
      Vecf.scale_slice backing ~pos:pad ~len:width k;
      let reference = Summary.scale (Summary.make ~total:0. ~by_topic:a) k in
      Array.sub backing pad width = reference.Summary.by_topic)

let prop_decay_slice =
  QCheck.Test.make ~name:"decay_slice = add (scale src k)" ~count:300
    slice_case (fun (a, b, k, pad) ->
      let width = Array.length a in
      let backing = embed pad a in
      Vecf.decay_slice ~dst:backing ~dst_pos:pad b ~src_pos:0 ~len:width ~k;
      let expected = Array.mapi (fun i x -> x +. (b.(i) *. k)) a in
      Array.sub backing pad width = expected)

let test_slice_bounds () =
  Alcotest.check_raises "slice past the end"
    (Invalid_argument "Vecf.add_slice: slice out of range") (fun () ->
      Vecf.add_slice ~dst:(Array.make 4 0.) ~dst_pos:2 (Array.make 4 0.)
        ~src_pos:0 ~len:3)

(* {2 Rowstore mechanics} *)

let test_rowstore_basics () =
  let s = Rowstore.create ~stride:3 () in
  Alcotest.(check int) "empty" 0 (Rowstore.count s);
  let off7 = Rowstore.ensure s 7 in
  (Rowstore.data s).(off7) <- 1.;
  let off3 = Rowstore.ensure s 3 in
  (Rowstore.data s).(off3 + 2) <- 2.;
  Alcotest.(check int) "two rows" 2 (Rowstore.count s);
  Alcotest.(check (list int)) "peers sorted" [ 3; 7 ] (Rowstore.peers s);
  Alcotest.(check (option int)) "find hits" (Some off7) (Rowstore.find s 7);
  Alcotest.(check (option int)) "find misses" None (Rowstore.find s 9);
  Alcotest.(check int) "ensure is idempotent" off7 (Rowstore.ensure s 7)

let test_rowstore_recycles_zeroed () =
  let s = Rowstore.create ~rows:2 ~stride:2 () in
  let off = Rowstore.ensure s 1 in
  (Rowstore.data s).(off) <- 5.;
  (Rowstore.data s).(off + 1) <- 6.;
  Rowstore.remove s 1;
  Alcotest.(check int) "row dropped" 0 (Rowstore.count s);
  let off' = Rowstore.ensure s 2 in
  Alcotest.(check int) "slot recycled" off off';
  Alcotest.check exact "recycled row starts clean" [| 0.; 0. |]
    (Array.sub (Rowstore.data s) off' 2)

let test_rowstore_growth_honors_hint () =
  (* A degree hint must not be quadrupled away by the growth floor:
     a 1-row store that needs a second row doubles to 2, not 4. *)
  let s = Rowstore.create ~rows:1 ~stride:5 () in
  ignore (Rowstore.ensure s 0);
  Alcotest.(check int) "hint-sized" 5 (Rowstore.capacity_words s);
  ignore (Rowstore.ensure s 1);
  Alcotest.(check int) "doubles from actual capacity" 10
    (Rowstore.capacity_words s);
  ignore (Rowstore.ensure s 2);
  Alcotest.(check int) "doubles again" 20 (Rowstore.capacity_words s)

let test_rowstore_growth_preserves_rows () =
  let s = Rowstore.create ~rows:1 ~stride:2 () in
  let off0 = Rowstore.ensure s 10 in
  (Rowstore.data s).(off0) <- 1.5;
  (Rowstore.data s).(off0 + 1) <- 2.5;
  ignore (Rowstore.ensure s 11);
  (* the backing array was reallocated; offsets are still valid *)
  let off0' = Option.get (Rowstore.find s 10) in
  Alcotest.check exact "row survived growth" [| 1.5; 2.5 |]
    (Array.sub (Rowstore.data s) off0' 2)

(* {2 Flat CRI/ERI vs the boxed reference model} *)

(* The boxed reference mirrors the representation the flat store
   replaced: one [Summary] per peer in a hash table created with the
   same initial size (8) and driven by the same key sequence, so its
   iteration order matches the row store's by construction. *)
module Ref_model = struct
  type t = { width : int; local : Summary.t; rows : (int, Summary.t) Hashtbl.t }

  let create ~width ~local = { width; local; rows = Hashtbl.create 8 }

  let set_row t ~peer s = Hashtbl.replace t.rows peer s

  let remove_row t ~peer = Hashtbl.remove t.rows peer

  let aggregate_with_local t =
    let by_topic = Array.copy t.local.Summary.by_topic in
    let total = ref t.local.Summary.total in
    Hashtbl.iter
      (fun _ (r : Summary.t) ->
        total := !total +. r.Summary.total;
        Vecf.add_into ~dst:by_topic r.Summary.by_topic)
      t.rows;
    { Summary.total = !total; by_topic }

  let minus (all : Summary.t) (r : Summary.t) =
    {
      Summary.total = Float.max 0. (all.Summary.total -. r.Summary.total);
      by_topic =
        Array.mapi
          (fun i x -> Float.max 0. (x -. r.Summary.by_topic.(i)))
          all.Summary.by_topic;
    }

  let cri_export t ~exclude =
    let all = aggregate_with_local t in
    match exclude with
    | None -> all
    | Some peer -> (
        match Hashtbl.find_opt t.rows peer with
        | None -> all
        | Some r -> minus all r)

  let aggregate_rows t =
    let by_topic = Array.make t.width 0. in
    let total = ref 0. in
    Hashtbl.iter
      (fun _ (r : Summary.t) ->
        total := !total +. r.Summary.total;
        Vecf.add_into ~dst:by_topic r.Summary.by_topic)
      t.rows;
    { Summary.total = !total; by_topic }

  let eri_export t ~fanout ~exclude =
    let rest =
      let agg = aggregate_rows t in
      match exclude with
      | None -> agg
      | Some peer -> (
          match Hashtbl.find_opt t.rows peer with
          | None -> agg
          | Some r -> minus agg r)
    in
    let k = 1. /. fanout in
    {
      Summary.total = t.local.Summary.total +. (rest.Summary.total *. k);
      by_topic =
        Array.mapi
          (fun i x -> x +. (rest.Summary.by_topic.(i) *. k))
          t.local.Summary.by_topic;
    }
end

type op = Set of int * float array | Remove of int

let width = 5

let op_gen =
  QCheck.Gen.(
    int_range 0 6 >>= fun peer ->
    bool >>= fun remove ->
    if remove then return (Remove peer)
    else counts_gen width >>= fun row -> return (Set (peer, row)))

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Set (p, _) -> Printf.sprintf "set %d" p
             | Remove p -> Printf.sprintf "rm %d" p)
           ops))
    QCheck.Gen.(list_size (int_range 1 40) op_gen)

let local_summary =
  Summary.make ~total:7.5 ~by_topic:[| 1.; 0.; 2.5; 0.25; 3. |]

let summary_of_row row =
  Summary.make ~total:(Vecf.sum row) ~by_topic:(Array.copy row)

let vector = function Scheme.Vector v -> v | _ -> Alcotest.fail "expected a vector"

let replay_cri ops =
  let flat = Scheme.create Scheme.Cri_kind ~width ~local:local_summary in
  let reference = Ref_model.create ~width ~local:local_summary in
  List.iter
    (function
      | Set (peer, row) ->
          let s = summary_of_row row in
          Scheme.set_row flat ~peer (Scheme.Vector s);
          Ref_model.set_row reference ~peer s
      | Remove peer ->
          Scheme.remove_row flat ~peer;
          Ref_model.remove_row reference ~peer)
    ops;
  (flat, reference)

let exports_match flat reference =
  List.for_all
    (fun exclude ->
      let got = vector (Scheme.export flat ~exclude) in
      let want = Ref_model.cri_export reference ~exclude in
      got.Summary.total = want.Summary.total
      && got.Summary.by_topic = want.Summary.by_topic)
    [ None; Some 0; Some 3; Some 6; Some 99 ]

let prop_cri_matches_reference =
  QCheck.Test.make ~name:"flat CRI = boxed reference (bit-exact)" ~count:200
    ops_arb (fun ops ->
      let flat, reference = replay_cri ops in
      exports_match flat reference)

let prop_eri_matches_reference =
  QCheck.Test.make ~name:"flat ERI = boxed reference (bit-exact)" ~count:200
    ops_arb (fun ops ->
      let fanout = 4. in
      let flat =
        Scheme.create (Scheme.Eri_kind { fanout }) ~width ~local:local_summary
      in
      let reference = Ref_model.create ~width ~local:local_summary in
      List.iter
        (function
          | Set (peer, row) ->
              let s = summary_of_row row in
              Scheme.set_row flat ~peer (Scheme.Vector s);
              Ref_model.set_row reference ~peer s
          | Remove peer ->
              Scheme.remove_row flat ~peer;
              Ref_model.remove_row reference ~peer)
        ops;
      List.for_all
        (fun exclude ->
          let got = vector (Scheme.export flat ~exclude) in
          let want = Ref_model.eri_export reference ~fanout ~exclude in
          got.Summary.total = want.Summary.total
          && got.Summary.by_topic = want.Summary.by_topic)
        [ None; Some 0; Some 3; Some 6; Some 99 ])

let test_row_roundtrip () =
  let flat = Scheme.create Scheme.Cri_kind ~width ~local:local_summary in
  let s = summary_of_row [| 1.; 2.; 3.; 4.; 5. |] in
  Scheme.set_row flat ~peer:2 (Scheme.Vector s);
  Alcotest.check summary_exact "row readback" s
    (vector (Option.get (Scheme.row flat ~peer:2)));
  Alcotest.(check bool) "absent row" true (Scheme.row flat ~peer:9 = None)

(* {2 Reset stores}

   The rooted and converged builds reuse one scratch store per network,
   resetting it between nodes, and rely on a reset store iterating an
   insert sequence exactly as a fresh one does. *)

type dirt = Put of int | Drop of int

(* One round dirties the reused store — inserts past its one-row
   capacity and past the peer table's 16- and 32-bucket resizes, and
   removes — resets it, and feeds it and a fresh store the same
   sequence of 0-80 distinct peers. *)
let reset_round_gen =
  QCheck.Gen.(
    list_size (int_range 0 120)
      (frequency
         [
           (3, map (fun p -> Put p) (int_range 0 199));
           (1, map (fun p -> Drop p) (int_range 0 199));
         ])
    >>= fun dirt ->
    int_range 0 80 >>= fun k ->
    shuffle_l (List.init 200 Fun.id) >>= fun peers ->
    return (dirt, List.filteri (fun i _ -> i < k) peers))

let reset_case =
  QCheck.make
    ~print:(fun rounds ->
      String.concat " | "
        (List.map
           (fun (dirt, seq) ->
             Printf.sprintf "dirt=%d seq=[%s]" (List.length dirt)
               (String.concat ";" (List.map string_of_int seq)))
           rounds))
    QCheck.Gen.(list_size (int_range 1 4) reset_round_gen)

(* Peers in iteration order, each with its row's bits. *)
let iterated t =
  let acc = ref [] in
  Rowstore.iter t (fun peer off ->
      let row = Array.sub (Rowstore.data t) off (Rowstore.stride t) in
      acc := (peer, Array.map Int64.bits_of_float row) :: !acc);
  List.rev !acc

let prop_reset_like_fresh =
  QCheck.Test.make ~name:"reset store iterates like a fresh one" ~count:200
    reset_case (fun rounds ->
      let stride = 3 in
      let scratch = Rowstore.create ~rows:1 ~stride () in
      let row = Array.make stride 0. in
      let load t peer =
        row.(0) <- float_of_int peer;
        row.(2) <- float_of_int (peer * peer);
        Rowstore.load_row t ~peer row ~pos:0
      in
      List.for_all
        (fun (dirt, seq) ->
          List.iter
            (function
              | Put p -> load scratch p | Drop p -> Rowstore.remove scratch p)
            dirt;
          Rowstore.reset scratch;
          let empty = Rowstore.count scratch = 0 in
          let fresh = Rowstore.create ~stride () in
          List.iter
            (fun p ->
              load scratch p;
              load fresh p)
            seq;
          empty
          && Rowstore.iteration_peers scratch = Rowstore.iteration_peers fresh
          && iterated scratch = iterated fresh)
        rounds)

let test_rowstore_reset_zeroes () =
  let s = Rowstore.create ~rows:1 ~stride:2 () in
  Rowstore.load_row s ~peer:3 [| 9.; 8.; 7. |] ~pos:1;
  Rowstore.load_row s ~peer:5 [| 6.; 5. |] ~pos:0;
  Rowstore.set_stamp s 5 4;
  Alcotest.check exact "load_row reads from pos" [| 8.; 7. |]
    (Array.sub (Rowstore.data s) (Option.get (Rowstore.find s 3)) 2);
  Rowstore.reset s;
  Alcotest.(check int) "empty" 0 (Rowstore.count s);
  Alcotest.(check (option int)) "peer gone" None (Rowstore.find s 5);
  let off = Rowstore.ensure s 11 in
  let off' = Rowstore.ensure s 12 in
  Alcotest.check exact "recycled rows are zero" [| 0.; 0.; 0.; 0. |]
    [|
      (Rowstore.data s).(off);
      (Rowstore.data s).(off + 1);
      (Rowstore.data s).(off');
      (Rowstore.data s).(off' + 1);
    |];
  Alcotest.(check int) "stamps cleared" 0
    (Rowstore.stamp s 11 + Rowstore.stamp s 12)

let suite =
  ( "store",
    [
      Alcotest.test_case "rowstore basics" `Quick test_rowstore_basics;
      Alcotest.test_case "rowstore recycles zeroed slots" `Quick
        test_rowstore_recycles_zeroed;
      Alcotest.test_case "rowstore growth honors degree hint" `Quick
        test_rowstore_growth_honors_hint;
      Alcotest.test_case "rowstore growth preserves rows" `Quick
        test_rowstore_growth_preserves_rows;
      Alcotest.test_case "slice bounds checked" `Quick test_slice_bounds;
      Alcotest.test_case "row roundtrip" `Quick test_row_roundtrip;
      Alcotest.test_case "rowstore reset zeroes rows and stamps" `Quick
        test_rowstore_reset_zeroes;
      QCheck_alcotest.to_alcotest prop_add_slice;
      QCheck_alcotest.to_alcotest prop_sub_clamp_slice;
      QCheck_alcotest.to_alcotest prop_scale_slice;
      QCheck_alcotest.to_alcotest prop_decay_slice;
      QCheck_alcotest.to_alcotest prop_cri_matches_reference;
      QCheck_alcotest.to_alcotest prop_eri_matches_reference;
      QCheck_alcotest.to_alcotest prop_reset_like_fresh;
    ] )
