(* Quantile-sketch properties.

   Two contracts matter: merge is associative and commutative *at the
   byte level* (Sketch.encode), which is what makes per-trial sketches
   safe to combine in any order at any pool width; and every quantile
   estimate is within the advertised relative error of the exact
   sorted-reference quantile. *)

open Ri_obs

let encode_testable = Alcotest.string

(* Exactly the rank rule Sketch.quantile implements: the element at
   0-based index ceil(q * (n - 1)) of the sorted multiset. *)
let exact_quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(int_of_float (Float.ceil (q *. float_of_int (n - 1))))

let of_list xs =
  let t = Sketch.create () in
  List.iter (Sketch.add t) xs;
  t

(* Positive observations spanning several decades, the shape of
   latency/byte-count data the sketches actually hold. *)
let pos_list =
  QCheck.(
    list_of_size
      Gen.(int_range 1 400)
      (map Float.exp (float_range (-2.) 14.)))

let prop_testcase = QCheck_alcotest.to_alcotest

let merge_commutative =
  QCheck.Test.make ~count:100 ~name:"merge commutes at byte level"
    QCheck.(pair pos_list pos_list)
    (fun (xs, ys) ->
      let a = of_list xs and b = of_list ys in
      Sketch.encode (Sketch.merge a b) = Sketch.encode (Sketch.merge b a))

let merge_associative =
  QCheck.Test.make ~count:100 ~name:"merge associates at byte level"
    QCheck.(triple pos_list pos_list pos_list)
    (fun (xs, ys, zs) ->
      let a = of_list xs and b = of_list ys and c = of_list zs in
      Sketch.encode (Sketch.merge (Sketch.merge a b) c)
      = Sketch.encode (Sketch.merge a (Sketch.merge b c)))

(* Sharding a stream over k sketches and merging reaches the same bytes
   as observing it sequentially — the pool-width independence the live
   series rely on. *)
let sharding_irrelevant =
  QCheck.Test.make ~count:100 ~name:"sharded merge equals sequential"
    QCheck.(pair (int_range 1 7) pos_list)
    (fun (k, xs) ->
      let shards = Array.init k (fun _ -> Sketch.create ()) in
      List.iteri (fun i x -> Sketch.add shards.(i mod k) x) xs;
      let merged = Array.fold_left Sketch.merge (Sketch.create ()) shards in
      Sketch.encode merged = Sketch.encode (of_list xs))

let quantile_relative_error =
  QCheck.Test.make ~count:100 ~name:"quantiles within alpha of exact" pos_list
    (fun xs ->
      let t = of_list xs in
      let alpha = Sketch.alpha t in
      List.for_all
        (fun q ->
          let est = Sketch.quantile t q in
          let exact = exact_quantile xs q in
          Float.abs (est -. exact) <= (alpha *. exact) +. 1e-9)
        [ 0.; 0.25; 0.5; 0.9; 0.95; 0.99; 0.999; 1. ])

let test_empty () =
  let t = Sketch.create () in
  Alcotest.(check int) "count" 0 (Sketch.count t);
  Alcotest.(check (float 0.)) "quantile" 0. (Sketch.quantile t 0.5);
  Alcotest.(check (float 0.)) "min" 0. (Sketch.min_value t);
  Alcotest.(check (float 0.)) "max" 0. (Sketch.max_value t)

let test_zero_bucket () =
  let t = of_list [ 0.; -3.; 0.; 5. ] in
  Alcotest.(check int) "all counted" 4 (Sketch.count t);
  Alcotest.(check (float 0.)) "p50 is exact zero" 0. (Sketch.quantile t 0.5);
  Alcotest.(check bool) "p100 near 5" true
    (Float.abs (Sketch.quantile t 1. -. 5.) <= 0.05)

let test_sum_order_independent () =
  let xs = List.init 100 (fun i -> Float.of_int (i + 1) /. 7.) in
  let fwd = of_list xs and rev = of_list (List.rev xs) in
  Alcotest.check encode_testable "same bytes" (Sketch.encode fwd)
    (Sketch.encode rev);
  Alcotest.(check bool) "sum near exact" true
    (Float.abs (Sketch.sum fwd -. List.fold_left ( +. ) 0. xs) < 1e-3)

let test_alpha_mismatch () =
  let a = Sketch.create ~alpha:0.01 () and b = Sketch.create ~alpha:0.02 () in
  Alcotest.check_raises "merge rejects alpha mismatch"
    (Invalid_argument "Sketch.merge_into: alpha mismatch") (fun () ->
      ignore (Sketch.merge a b))

(* The registry face: summary registration is idempotent, observation
   is gated by Metrics.enabled, and render emits a Prometheus summary. *)
let test_series_render () =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled was)
    (fun () ->
      let s = Metrics.summary ~help:"Test sketch." "ri_test_sketch_series" in
      let s' = Metrics.summary "ri_test_sketch_series" in
      List.iter (fun x -> Metrics.observe s (float_of_int x)) [ 1; 2; 3; 4; 5 ];
      Alcotest.(check int) "registration idempotent" 5
        (Sketch.count (Metrics.snapshot s'));
      let text = Metrics.render () in
      Alcotest.(check bool) "summary type line" true
        (Astring.String.is_infix ~affix:"# TYPE ri_test_sketch_series summary"
           text);
      Alcotest.(check bool) "quantile sample" true
        (Astring.String.is_infix
           ~affix:"ri_test_sketch_series{quantile=\"0.5\"}" text);
      Alcotest.(check bool) "count sample" true
        (Astring.String.is_infix ~affix:"ri_test_sketch_series_count 5" text);
      Metrics.reset ();
      Alcotest.(check int) "reset zeroes" 0
        (Sketch.count (Metrics.snapshot s)))

let suite =
  ( "sketch",
    [
      prop_testcase merge_commutative;
      prop_testcase merge_associative;
      prop_testcase sharding_irrelevant;
      prop_testcase quantile_relative_error;
      Alcotest.test_case "empty sketch" `Quick test_empty;
      Alcotest.test_case "zero bucket exact" `Quick test_zero_bucket;
      Alcotest.test_case "sum order-independent" `Quick
        test_sum_order_independent;
      Alcotest.test_case "alpha mismatch rejected" `Quick test_alpha_mismatch;
      Alcotest.test_case "series registry render" `Quick test_series_render;
    ] )
