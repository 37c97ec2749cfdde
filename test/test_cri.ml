(* Compound routing index, validated against Figures 3-5 of the paper.
   Topic order: databases, networks, theory, languages. *)

open Ri_content
open Ri_core

let s total by = Summary.of_counts ~total ~by_topic:by

let vector = function Scheme.Vector v -> v | _ -> Alcotest.fail "expected a vector"

(* Node A of the running example. *)
let local_a = s 300 [| 30; 80; 0; 10 |]
let row_b = s 100 [| 20; 0; 10; 30 |]
let row_c = s 1000 [| 0; 300; 0; 50 |]
let row_d = s 300 [| 140; 0; 140; 225 |]

let make_a () =
  let t = Scheme.create Scheme.Cri_kind ~width:4 ~local:local_a in
  Scheme.set_row t ~peer:1 (Scheme.Vector row_b);
  Scheme.set_row t ~peer:2 (Scheme.Vector row_c);
  t

let test_create_validation () =
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Scheme.create: summary width mismatch") (fun () ->
      ignore (Scheme.create Scheme.Cri_kind ~width:3 ~local:local_a));
  Alcotest.check_raises "bad width"
    (Invalid_argument "Scheme.create: width must be positive") (fun () ->
      ignore
        (Scheme.create Scheme.Cri_kind ~width:0 ~local:(Summary.zero ~topics:0)))

let test_rows () =
  let t = make_a () in
  Alcotest.(check (list int)) "peers" [ 1; 2 ] (Scheme.peers t);
  (match Scheme.row t ~peer:1 with
  | Some r ->
      Alcotest.(check bool) "row B" true (Summary.approx_equal (vector r) row_b)
  | None -> Alcotest.fail "missing row");
  Alcotest.(check bool) "absent row" true (Scheme.row t ~peer:9 = None);
  Scheme.remove_row t ~peer:1;
  Alcotest.(check (list int)) "after removal" [ 2 ] (Scheme.peers t)

let test_local_update () =
  let t = make_a () in
  Alcotest.(check bool) "local" true
    (Summary.approx_equal (Scheme.local t) local_a);
  let new_local = s 301 [| 30; 80; 0; 11 |] in
  Scheme.set_local t new_local;
  Alcotest.(check bool) "replaced" true
    (Summary.approx_equal (Scheme.local t) new_local)

let test_figure5_export () =
  (* "A sends D a vector saying that it has access to 1400 documents
     (300 + 100 + 1000), of which 50 are on databases, 380 on networks,
     10 on theory, and 90 on languages" (Section 4.2). *)
  let t = make_a () in
  let e = vector (Scheme.export t ~exclude:None) in
  Alcotest.(check (float 1e-9)) "total" 1400. e.Summary.total;
  Alcotest.(check (float 1e-9)) "databases" 50. (Summary.get e 0);
  Alcotest.(check (float 1e-9)) "networks" 380. (Summary.get e 1);
  Alcotest.(check (float 1e-9)) "theory" 10. (Summary.get e 2);
  Alcotest.(check (float 1e-9)) "languages" 90. (Summary.get e 3)

let test_export_excludes_target_row () =
  let t = make_a () in
  Scheme.set_row t ~peer:3 (Scheme.Vector row_d);
  let e = vector (Scheme.export t ~exclude:(Some 3)) in
  (* Same as the Figure 5 vector: D's own row must not echo back. *)
  Alcotest.(check (float 1e-9)) "total excludes D" 1400. e.Summary.total;
  let unknown = vector (Scheme.export t ~exclude:(Some 42)) in
  Alcotest.(check (float 1e-9)) "unknown peer = full aggregate" 1700.
    unknown.Summary.total

let test_export_all_matches_pointwise () =
  let t = make_a () in
  Scheme.set_row t ~peer:3 (Scheme.Vector row_d);
  List.iter
    (fun (peer, batch) ->
      let single = vector (Scheme.export t ~exclude:(Some peer)) in
      Alcotest.(check bool)
        (Printf.sprintf "export_all peer %d" peer)
        true
        (Summary.approx_equal ~eps:1e-6 (vector batch) single))
    (Scheme.export_all t)

let test_goodness () =
  let t = make_a () in
  Scheme.set_row t ~peer:3 (Scheme.Vector (s 200 [| 100; 0; 100; 150 |]));
  (* Figure 3's worked estimates for "databases AND languages". *)
  Alcotest.(check (float 1e-9)) "B" 6. (Scheme.goodness t ~peer:1 ~query:[ 0; 3 ]);
  Alcotest.(check (float 1e-9)) "C" 0. (Scheme.goodness t ~peer:2 ~query:[ 0; 3 ]);
  Alcotest.(check (float 1e-9)) "D" 75. (Scheme.goodness t ~peer:3 ~query:[ 0; 3 ]);
  Alcotest.(check (float 1e-9)) "unknown peer" 0.
    (Scheme.goodness t ~peer:9 ~query:[ 0 ])

let prop_export_is_local_plus_rows =
  QCheck.Test.make ~name:"export equals local plus kept rows" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 6) (float_range 0. 100.))
    (fun totals ->
      let t =
        Scheme.create Scheme.Cri_kind ~width:1
          ~local:(Summary.make ~total:5. ~by_topic:[| 5. |])
      in
      List.iteri
        (fun i v ->
          Scheme.set_row t ~peer:i
            (Scheme.Vector (Summary.make ~total:v ~by_topic:[| v |])))
        totals;
      let e = vector (Scheme.export t ~exclude:None) in
      Float.abs (e.Summary.total -. (5. +. List.fold_left ( +. ) 0. totals))
      < 1e-6)

let suite =
  ( "cri",
    [
      Alcotest.test_case "validation" `Quick test_create_validation;
      Alcotest.test_case "rows" `Quick test_rows;
      Alcotest.test_case "local update" `Quick test_local_update;
      Alcotest.test_case "figure 5 export (1400/50/380/10/90)" `Quick test_figure5_export;
      Alcotest.test_case "export excludes target" `Quick test_export_excludes_target_row;
      Alcotest.test_case "export_all pointwise" `Quick test_export_all_matches_pointwise;
      Alcotest.test_case "goodness (6/0/75)" `Quick test_goodness;
      QCheck_alcotest.to_alcotest prop_export_is_local_plus_rows;
    ] )
