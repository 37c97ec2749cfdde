(* Summary vectors: the rows of every routing index. *)

open Ri_content

let s total by_topic = Summary.make ~total ~by_topic

let test_construction () =
  let a = Summary.of_counts ~total:10 ~by_topic:[| 2; 3 |] in
  Alcotest.(check (float 1e-9)) "total" 10. a.Summary.total;
  Alcotest.(check int) "topics" 2 (Summary.topics a);
  Alcotest.check_raises "negative" (Invalid_argument "Summary.make: negative count")
    (fun () -> ignore (s (-1.) [| 0. |]))

let test_zero () =
  let z = Summary.zero ~topics:3 in
  Alcotest.(check bool) "is_zero" true (Summary.is_zero z);
  Alcotest.(check bool) "nonzero" false
    (Summary.is_zero (s 1. [| 0.; 0.; 0. |]))

let test_add_sub () =
  let a = s 10. [| 2.; 3. |] and b = s 4. [| 1.; 5. |] in
  let sum = Summary.add a b in
  Alcotest.(check (float 1e-9)) "total" 14. sum.Summary.total;
  Alcotest.(check (float 1e-9)) "t1" 8. (Summary.get sum 1);
  (* Subtraction clamps at zero instead of going negative. *)
  let diff = Summary.sub a b in
  Alcotest.(check (float 1e-9)) "clamped" 0. (Summary.get diff 1);
  Alcotest.(check (float 1e-9)) "normal" 1. (Summary.get diff 0);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Summary.add: topic width mismatch") (fun () ->
      ignore (Summary.add a (Summary.zero ~topics:3)))

let test_scale_and_sum () =
  let a = s 10. [| 2.; 4. |] in
  let half = Summary.scale a 0.5 in
  Alcotest.(check (float 1e-9)) "total" 5. half.Summary.total;
  Alcotest.(check (float 1e-9)) "t1" 2. (Summary.get half 1);
  Alcotest.check_raises "negative factor"
    (Invalid_argument "Summary.scale: negative factor") (fun () ->
      ignore (Summary.scale a (-1.)));
  let total = Summary.sum [ a; a; a ] ~topics:2 in
  Alcotest.(check (float 1e-9)) "sum" 30. total.Summary.total

let test_selectivity () =
  let a = s 100. [| 20.; 0. |] in
  Alcotest.(check (float 1e-9)) "selectivity" 0.2 (Summary.selectivity a 0);
  Alcotest.(check (float 1e-9)) "empty collection" 0.
    (Summary.selectivity (Summary.zero ~topics:2) 0)

let test_diffs () =
  let a = s 100. [| 50. |] and b = s 101. [| 50.5 |] in
  Alcotest.(check (float 1e-9)) "rel diff" 0.01 (Summary.max_rel_diff a b);
  Alcotest.(check (float 1e-6)) "euclid" (sqrt 1.25)
    (Summary.euclidean_distance a b);
  Alcotest.(check bool) "approx" true (Summary.approx_equal a a)

let summary_gen =
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Summary.pp s)
    QCheck.Gen.(
      let* width = int_range 1 8 in
      let* total = float_range 0. 1000. in
      let* counts = array_size (return width) (float_range 0. 1000.) in
      return (Summary.make ~total ~by_topic:counts))

let prop_add_commutes =
  QCheck.Test.make ~name:"add commutes" ~count:200
    QCheck.(pair summary_gen summary_gen)
    (fun (a, b) ->
      QCheck.assume (Summary.topics a = Summary.topics b);
      Summary.approx_equal ~eps:1e-6 (Summary.add a b) (Summary.add b a))

let prop_sub_of_add_restores =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:200
    QCheck.(pair summary_gen summary_gen)
    (fun (a, b) ->
      QCheck.assume (Summary.topics a = Summary.topics b);
      Summary.approx_equal ~eps:1e-5 (Summary.sub (Summary.add a b) b) a)

let prop_counts_never_negative =
  QCheck.Test.make ~name:"sub never yields negative counts" ~count:200
    QCheck.(pair summary_gen summary_gen)
    (fun (a, b) ->
      QCheck.assume (Summary.topics a = Summary.topics b);
      let d = Summary.sub a b in
      d.Summary.total >= 0.
      && Array.for_all (fun x -> x >= 0.) d.Summary.by_topic)

(* Reference for the update wave's distance kernel: the closure-and-ref
   accumulator form, kept verbatim.  Any rewrite of
   [Summary.euclidean_distance] must return exactly these bits. *)
let ref_euclidean_distance (a : Summary.t) (b : Summary.t) =
  let acc = ref 0. in
  let slot x y =
    let d = x -. y in
    acc := !acc +. (d *. d)
  in
  slot a.Summary.total b.Summary.total;
  for i = 0 to Array.length a.Summary.by_topic - 1 do
    slot a.Summary.by_topic.(i) b.Summary.by_topic.(i)
  done;
  sqrt !acc

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Pairs of one width in the shapes the significance test meets: equal
   vectors, an all-zero side, near-equal rows (one-ULP-scale noise on
   large counts) and unrelated rows. *)
let summary_pair_gen =
  QCheck.Gen.(
    let* width = int_range 1 8 in
    let row = array_size (return width) (float_range 0. 1000.) in
    let* total = float_range 0. 5000. and* by_topic = row in
    let a = Summary.make ~total ~by_topic in
    let* shape = int_range 0 3 in
    let+ b =
      match shape with
      | 0 -> return a
      | 1 -> return (Summary.zero ~topics:width)
      | 2 ->
          let+ eps = float_range 0. 1e-9 in
          Summary.make ~total:(total *. (1. +. eps))
            ~by_topic:(Array.map (fun x -> x *. (1. -. eps)) by_topic)
      | _ ->
          let+ total = float_range 0. 5000. and+ by_topic = row in
          Summary.make ~total ~by_topic
    in
    if shape = 1 && width mod 2 = 0 then (b, a) else (a, b))

let summary_pair =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "%a / %a" Summary.pp a Summary.pp b)
    summary_pair_gen

let prop_euclidean_bits =
  QCheck.Test.make ~name:"euclidean_distance bits match the reference"
    ~count:500 summary_pair (fun (a, b) ->
      same_bits (Summary.euclidean_distance a b) (ref_euclidean_distance a b)
      && same_bits
           (Summary.euclidean_distance (Summary.zero ~topics:(Summary.topics a))
              (Summary.zero ~topics:(Summary.topics a)))
           0.)

let suite =
  ( "summary",
    [
      Alcotest.test_case "construction" `Quick test_construction;
      Alcotest.test_case "zero" `Quick test_zero;
      Alcotest.test_case "add/sub" `Quick test_add_sub;
      Alcotest.test_case "scale/sum" `Quick test_scale_and_sum;
      Alcotest.test_case "selectivity" `Quick test_selectivity;
      Alcotest.test_case "diffs" `Quick test_diffs;
      QCheck_alcotest.to_alcotest prop_add_commutes;
      QCheck_alcotest.to_alcotest prop_sub_of_add_restores;
      QCheck_alcotest.to_alcotest prop_counts_never_negative;
      QCheck_alcotest.to_alcotest prop_euclidean_bits;
    ] )
