(* Exponentially aggregated routing index, validated against Figure 9 of
   the paper.  Topic order: databases, networks, theory, languages. *)

open Ri_content
open Ri_core

let s total by = Summary.of_counts ~total ~by_topic:by

let eri fanout = Scheme.Eri_kind { fanout }

let vector = function Scheme.Vector v -> v | _ -> Alcotest.fail "expected a vector"

(* Figure 8's locals: X, Y, Z and their leaf children (one child holds
   the whole hop-2 mass; siblings are empty). *)
let local_x = s 60 [| 13; 2; 5; 10 |]
let kids_x = s 20 [| 10; 10; 4; 17 |]
let local_y = s 30 [| 0; 3; 15; 12 |]
let kids_y = s 50 [| 31; 0; 15; 20 |]
let local_z = s 5 [| 2; 0; 3; 3 |]
let kids_z = s 70 [| 10; 40; 20; 50 |]

(* Build a mid node's ERI (fanout 3) from its local index and the
   aggregate of its leaf children, then export toward W. *)
let export_toward_w local kids =
  let t = Scheme.create (eri 3.) ~width:4 ~local in
  Scheme.set_row t ~peer:100 (Scheme.Vector kids);
  vector (Scheme.export t ~exclude:None)

let check_summary msg expected actual =
  Alcotest.(check (float 0.01)) (msg ^ " total") expected.Summary.total actual.Summary.total;
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 0.01))
        (Printf.sprintf "%s topic %d" msg i)
        v
        (Summary.get actual i))
    expected.Summary.by_topic

let test_figure9_rows () =
  (* "The entries for topic DB for X and Y have the values
     13 + 10/3 = 16.33 and 0 + 31/3 = 10.33" — and the full Figure 9
     table. *)
  check_summary "X"
    (Summary.make ~total:66.67 ~by_topic:[| 16.33; 5.33; 6.33; 15.67 |])
    (export_toward_w local_x kids_x);
  check_summary "Y"
    (Summary.make ~total:46.67 ~by_topic:[| 10.33; 3.00; 20.00; 18.67 |])
    (export_toward_w local_y kids_y);
  check_summary "Z"
    (Summary.make ~total:28.33 ~by_topic:[| 5.33; 13.33; 9.67; 19.67 |])
    (export_toward_w local_z kids_z)

let test_figure9_goodness_ranking () =
  let w = Scheme.create (eri 3.) ~width:4 ~local:(Summary.zero ~topics:4) in
  Scheme.set_row w ~peer:1 (Scheme.Vector (export_toward_w local_x kids_x));
  Scheme.set_row w ~peer:2 (Scheme.Vector (export_toward_w local_y kids_y));
  Scheme.set_row w ~peer:3 (Scheme.Vector (export_toward_w local_z kids_z));
  Alcotest.(check (float 0.01)) "X db" 16.33 (Scheme.goodness w ~peer:1 ~query:[ 0 ]);
  Alcotest.(check (float 0.01)) "Y db" 10.33 (Scheme.goodness w ~peer:2 ~query:[ 0 ]);
  Alcotest.(check (float 0.01)) "Z networks" 13.33
    (Scheme.goodness w ~peer:3 ~query:[ 1 ]);
  Alcotest.(check (float 1e-9)) "unknown peer" 0.
    (Scheme.goodness w ~peer:9 ~query:[ 0 ])

let test_validation () =
  Alcotest.check_raises "fanout" (Invalid_argument "Scheme.create: fanout must be > 1")
    (fun () -> ignore (Scheme.create (eri 1.) ~width:4 ~local:(Summary.zero ~topics:4)));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Scheme.create: summary width mismatch") (fun () ->
      ignore (Scheme.create (eri 3.) ~width:2 ~local:(Summary.zero ~topics:4)))

let test_export_formula () =
  (* export = local + (sum of rows except target) / F. *)
  let t =
    Scheme.create (eri 4.) ~width:1 ~local:(Summary.make ~total:8. ~by_topic:[| 8. |])
  in
  Scheme.set_row t ~peer:1 (Scheme.Vector (Summary.make ~total:12. ~by_topic:[| 12. |]));
  Scheme.set_row t ~peer:2 (Scheme.Vector (Summary.make ~total:20. ~by_topic:[| 20. |]));
  let to_peer1 = vector (Scheme.export t ~exclude:(Some 1)) in
  Alcotest.(check (float 1e-9)) "local + 20/4" 13. to_peer1.Summary.total;
  let to_new = vector (Scheme.export t ~exclude:(Some 99)) in
  Alcotest.(check (float 1e-9)) "local + 32/4" 16. to_new.Summary.total

let test_decay_over_distance () =
  (* A document mass D observed through a chain of k empty nodes is worth
     D / F^k: geometric decay with distance. *)
  let mass = Summary.make ~total:64. ~by_topic:[| 64. |] in
  let rec chain depth payload =
    if depth = 0 then payload
    else
      let t = Scheme.create (eri 4.) ~width:1 ~local:(Summary.zero ~topics:1) in
      Scheme.set_row t ~peer:0 (Scheme.Vector payload);
      chain (depth - 1) (vector (Scheme.export t ~exclude:None))
  in
  let after3 = chain 3 mass in
  Alcotest.(check (float 1e-9)) "64 / 4^3" 1. after3.Summary.total

let test_export_all_pointwise () =
  let t = Scheme.create (eri 3.) ~width:4 ~local:local_x in
  Scheme.set_row t ~peer:1 (Scheme.Vector kids_x);
  Scheme.set_row t ~peer:2 (Scheme.Vector kids_y);
  Scheme.set_row t ~peer:3 (Scheme.Vector kids_z);
  List.iter
    (fun (peer, batch) ->
      Alcotest.(check bool)
        (Printf.sprintf "peer %d" peer)
        true
        (Summary.approx_equal ~eps:1e-6 (vector batch)
           (vector (Scheme.export t ~exclude:(Some peer)))))
    (Scheme.export_all t)

let test_rows_crud () =
  let t = Scheme.create (eri 3.) ~width:4 ~local:local_x in
  Scheme.set_row t ~peer:7 (Scheme.Vector kids_x);
  Alcotest.(check (list int)) "peers" [ 7 ] (Scheme.peers t);
  Scheme.remove_row t ~peer:7;
  Alcotest.(check (list int)) "empty" [] (Scheme.peers t);
  Scheme.set_local t local_y;
  Alcotest.(check bool) "local swapped" true
    (Summary.approx_equal (Scheme.local t) local_y)

let suite =
  ( "eri",
    [
      Alcotest.test_case "figure 9 rows" `Quick test_figure9_rows;
      Alcotest.test_case "figure 9 goodness" `Quick test_figure9_goodness_ranking;
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "export formula" `Quick test_export_formula;
      Alcotest.test_case "geometric decay" `Quick test_decay_over_distance;
      Alcotest.test_case "export_all pointwise" `Quick test_export_all_pointwise;
      Alcotest.test_case "rows crud" `Quick test_rows_crud;
    ] )
