(* Hop-count routing index, validated against Figure 8 of the paper.
   Topic order: databases, networks, theory, languages(/systems). *)

open Ri_content
open Ri_core

let s total by = Summary.of_counts ~total ~by_topic:by

let hri3 = Scheme.Hri_kind { horizon = 2; fanout = 3. }

let hops = function Scheme.Hop_vector r -> r | _ -> Alcotest.fail "expected hops"

(* Figure 8: W's hop-count RI with horizon 2. *)
let row_x = [| s 60 [| 13; 2; 5; 10 |]; s 20 [| 10; 10; 4; 17 |] |]
let row_y = [| s 30 [| 0; 3; 15; 12 |]; s 50 [| 31; 0; 15; 20 |] |]
let row_z = [| s 5 [| 2; 0; 3; 3 |]; s 70 [| 10; 40; 20; 50 |] |]

let make_w () =
  let t = Scheme.create hri3 ~width:4 ~local:(Summary.zero ~topics:4) in
  Scheme.set_row t ~peer:1 (Scheme.Hop_vector row_x);
  Scheme.set_row t ~peer:2 (Scheme.Hop_vector row_y);
  Scheme.set_row t ~peer:3 (Scheme.Hop_vector row_z);
  t

let test_validation () =
  Alcotest.check_raises "horizon"
    (Invalid_argument "Scheme.create: horizon must be positive") (fun () ->
      ignore
        (Scheme.create
           (Scheme.Hri_kind { horizon = 0; fanout = 3. })
           ~width:4 ~local:(Summary.zero ~topics:4)));
  let t = make_w () in
  Alcotest.check_raises "row length"
    (Invalid_argument "Scheme.set_row: row length must equal the horizon")
    (fun () ->
      Scheme.set_row t ~peer:4 (Scheme.Hop_vector [| Summary.zero ~topics:4 |]))

let test_accessors () =
  let t = make_w () in
  Alcotest.(check int) "horizon" 2
    (match Scheme.kind t with
    | Scheme.Hri_kind { horizon; _ } -> horizon
    | _ -> Alcotest.fail "expected an HRI");
  Alcotest.(check int) "width" 4 (Scheme.width t);
  Alcotest.(check (list int)) "peers" [ 1; 2; 3 ] (Scheme.peers t);
  Scheme.remove_row t ~peer:2;
  Alcotest.(check (list int)) "after removal" [ 1; 3 ] (Scheme.peers t)

let test_figure8_goodness () =
  (* "the goodness of X for a query about DB documents would be
     13 + 10/3 = 16.33 and for Y would be 0 + 31/3 = 10.33, so we would
     prefer X over Y" (Section 6.1). *)
  let t = make_w () in
  Alcotest.(check (float 0.01)) "X" 16.33 (Scheme.goodness t ~peer:1 ~query:[ 0 ]);
  Alcotest.(check (float 0.01)) "Y" 10.33 (Scheme.goodness t ~peer:2 ~query:[ 0 ]);
  Alcotest.(check bool) "prefer X" true
    (Scheme.goodness t ~peer:1 ~query:[ 0 ] > Scheme.goodness t ~peer:2 ~query:[ 0 ]);
  Alcotest.(check (float 1e-9)) "unknown peer" 0.
    (Scheme.goodness t ~peer:9 ~query:[ 0 ])

let test_export_shifts_right () =
  (* "it shifts the columns to the right ... entries in the last column
     are discarded and the summary of the local index is placed as the
     first column". *)
  let local = s 7 [| 1; 2; 3; 1 |] in
  let t = Scheme.create hri3 ~width:4 ~local in
  Scheme.set_row t ~peer:1 (Scheme.Hop_vector row_x);
  Scheme.set_row t ~peer:2 (Scheme.Hop_vector row_y);
  let e = hops (Scheme.export t ~exclude:None) in
  Alcotest.(check int) "export length = horizon" 2 (Array.length e);
  Alcotest.(check bool) "slot 0 = local" true (Summary.approx_equal e.(0) local);
  (* Slot 1 = sum of the rows' hop-1 entries; the hop-2 entries (20, 50
     docs) fall off the horizon. *)
  Alcotest.(check (float 1e-9)) "slot 1 total" 90. e.(1).Summary.total;
  Alcotest.(check (float 1e-9)) "slot 1 db" 13. (Summary.get e.(1) 0)

let test_export_excludes_target () =
  let t = make_w () in
  let to_x = hops (Scheme.export t ~exclude:(Some 1)) in
  (* Only Y and Z contribute: hop-1 totals 30 + 5. *)
  Alcotest.(check (float 1e-9)) "slot 1 excludes X" 35. to_x.(1).Summary.total

let test_export_all_pointwise () =
  let t = make_w () in
  List.iter
    (fun (peer, batch) ->
      let single = hops (Scheme.export t ~exclude:(Some peer)) in
      Array.iteri
        (fun h sb ->
          Alcotest.(check bool)
            (Printf.sprintf "peer %d hop %d" peer h)
            true
            (Summary.approx_equal ~eps:1e-6 sb single.(h)))
        (hops batch))
    (Scheme.export_all t)

(* Documents recorded strictly beyond [hop] through [peer]: the totals
   of the row's slots from [hop] on. *)
let total_beyond_hop t ~peer ~hop =
  let r = hops (Option.get (Scheme.row t ~peer)) in
  Array.fold_left
    (fun acc (x : Summary.t) -> acc +. x.total)
    0.
    (Array.sub r hop (Array.length r - hop))

let test_no_information_beyond_horizon () =
  (* Chain the export along a - b - c - d: from d, node a's documents
     are three hops away, beyond the horizon of 2, so they vanish. *)
  let local = s 100 [| 100; 0; 0; 0 |] in
  let a = Scheme.create hri3 ~width:4 ~local in
  let b = Scheme.create hri3 ~width:4 ~local:(Summary.zero ~topics:4) in
  Scheme.set_row b ~peer:0 (Scheme.export a ~exclude:None);
  (* From c, a sits exactly at the horizon: still visible. *)
  let c = Scheme.create hri3 ~width:4 ~local:(Summary.zero ~topics:4) in
  Scheme.set_row c ~peer:1 (Scheme.export b ~exclude:None);
  Alcotest.(check (float 1e-6)) "visible at the horizon" (100. /. 3.)
    (Scheme.goodness c ~peer:1 ~query:[ 0 ]);
  let d = Scheme.create hri3 ~width:4 ~local:(Summary.zero ~topics:4) in
  Scheme.set_row d ~peer:2 (Scheme.export c ~exclude:None);
  Alcotest.(check (float 1e-9)) "goodness saw nothing" 0.
    (Scheme.goodness d ~peer:2 ~query:[ 0 ]);
  Alcotest.(check (float 1e-9)) "nothing beyond hop 0" 0.
    (total_beyond_hop d ~peer:2 ~hop:0)

let test_total_beyond_hop () =
  let t = make_w () in
  Alcotest.(check (float 1e-9)) "X beyond hop 1" 20.
    (total_beyond_hop t ~peer:1 ~hop:1);
  Alcotest.(check (float 1e-9)) "X beyond hop 2" 0.
    (total_beyond_hop t ~peer:1 ~hop:2)

let suite =
  ( "hri",
    [
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "accessors" `Quick test_accessors;
      Alcotest.test_case "figure 8 goodness (16.33/10.33)" `Quick test_figure8_goodness;
      Alcotest.test_case "export shifts right" `Quick test_export_shifts_right;
      Alcotest.test_case "export excludes target" `Quick test_export_excludes_target;
      Alcotest.test_case "export_all pointwise" `Quick test_export_all_pointwise;
      Alcotest.test_case "horizon forgets" `Quick test_no_information_beyond_horizon;
      Alcotest.test_case "total beyond hop" `Quick test_total_beyond_hop;
    ] )
