(* Growth guard: set-up work grows linearly with the network, and the
   work of one query and the RI storage of one node stay flat.

   At seed 42 every layer runs at [n] and at [4n] nodes, and the mean
   words it allocates over [trials] trials (minor plus direct-major, see
   {!Alloc.words_allocated}) are compared.  Linear work reads 4x.  The
   layers are called directly, never through [Trial.build], whose setup
   cache is shared by the whole test process: a measurement through it
   would depend on which tests ran first.  Each layer's inputs (graph,
   placement, content) are built outside its measured region.

   Queries and update waves on power-law overlays are left out: their
   reach grows with the hubs' degree, and so with n (Figs 17 and 18
   measure it).  Power-law generation and the rooted and converged
   builds on power-law overlays are guarded, the builds from graphs
   drawn outside the measured region. *)

open Ri_util
open Ri_content
open Ri_p2p
open Ri_sim

let n = 1_000

let trials = 3

(* Set-up layers, builds and waves grow linearly.  A query visits a
   bounded number of nodes, and a node's RI holds one row per
   neighbor. *)
let linear = 4.6

let flat_query = 1.5

let flat_storage = 1.05

let overlays =
  [
    ("tree", fun _ -> Config.Tree);
    ( "tree+cycles",
      fun cfg ->
        Config.Tree_with_cycles
          { extra_links = Config.scaled_links cfg ~paper_links:1000 } );
    ("powerlaw", fun _ -> Config.Power_law_graph);
  ]

let trees = [ "tree"; "tree+cycles" ]

let schemes = [ ("CRI", fun _ -> Config.cri); ("HRI", Config.hri); ("ERI", Config.eri) ]

let config overlay nodes =
  let cfg = Config.scaled Config.base ~num_nodes:nodes in
  Config.with_topology cfg ((List.assoc overlay overlays) cfg)

(* One trial's independent streams: topology, content, in-trial. *)
let streams (cfg : Config.t) trial =
  let master = Prng.create (cfg.seed + (trial * 0x9e3779b)) in
  let topo = Prng.split master in
  let place = Prng.split master in
  let run = Prng.split master in
  (topo, place, run)

(* Words [f] allocates, and its result. *)
let measured f =
  let r = ref None in
  let words = Alloc.words_allocated (fun () -> r := Some (f ())) in
  (Option.get !r, words)

(* The words of every layer at [nodes] nodes in one trial, by row name.
   Only the measured calls sit inside [measured]. *)
let trial_words nodes trial =
  let words = ref [] in
  let record name w = words := (name, w) :: !words in
  let tree_cfg = config "tree" nodes in
  let _, place, run = streams tree_cfg trial in
  let universe = Topic.make tree_cfg.topics in
  let query = Workload.random_single place universe ~stop:tree_cfg.stop_condition in
  let origin = Prng.int place nodes in
  let placement, w =
    measured (fun () ->
        Placement.distribute place ~universe ~n:nodes ~query_topics:query.topics
          ~results:tree_cfg.query_results ~distribution:tree_cfg.distribution
          ~background_per_node:tree_cfg.background_per_node ())
  in
  record "placement" w;
  let content = Network.content_of_placement placement in
  List.iter
    (fun (overlay, _) ->
      let cfg = config overlay nodes in
      let topo, _, _ = streams cfg trial in
      let graph, w = measured (fun () -> Trial.topology_graph cfg topo) in
      record ("topology " ^ overlay) w;
      List.iter
        (fun (scheme, kind) ->
          let cfg = Config.with_search cfg (Config.Ri (kind cfg)) in
          let row what = Printf.sprintf "%s %s %s" what scheme overlay in
          let build mode () =
            Network.create ~graph ~content ?scheme:(Config.scheme_kind cfg)
              ~compression:(Config.compression cfg) ~cycle_policy:cfg.cycle_policy
              ~min_update:cfg.min_update
              ~update_distance_floor:cfg.update_distance_floor ~mode ()
          in
          let setup network =
            { Trial.network; universe; query; origin; rng = Prng.split run; placement }
          in
          let on_tree = List.mem overlay trees in
          let rooted, w = measured (build (Network.Rooted origin)) in
          record (row "rooted") w;
          if on_tree then begin
            let rooted = setup rooted in
            record (row "query") (snd (measured (fun () -> Trial.run_query_on cfg rooted)))
          end;
          let converged, w = measured (build Network.Converged) in
          record (row "converged") w;
          (* The wave runs before [storage_words], which installs every
             node: on every tree overlay the wave pays the installs of
             the nodes it reaches. *)
          if on_tree then begin
            let converged = setup converged in
            record (row "wave")
              (snd (measured (fun () -> Trial.run_update_on cfg converged)))
          end;
          if overlay = "tree" then
            record (row "storage/node")
              (float_of_int (Network.storage_words converged) /. float_of_int nodes))
        schemes)
    overlays;
  List.rev !words

(* Each row's mean over the trials at n and at 4n. *)
let rows =
  lazy
    (let mean nodes =
       let runs = List.init trials (trial_words nodes) in
       List.map
         (fun (name, _) ->
           let total = List.fold_left (fun acc r -> acc +. List.assoc name r) 0. runs in
           (name, total /. float_of_int trials))
         (List.hd runs)
     in
     let small = mean n and large = mean (4 * n) in
     List.map (fun (name, s) -> (name, s, List.assoc name large)) small)

(* Every row whose name starts with [prefix] grows by at most [bound]. *)
let check_growth ~bound prefix () =
  let checked =
    List.filter (fun (name, _, _) -> String.starts_with ~prefix name) (Lazy.force rows)
  in
  Alcotest.(check bool) (prefix ^ " rows measured") true (checked <> []);
  List.iter
    (fun (name, small, large) ->
      let ratio = large /. small in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f -> %.1f, %.2fx (bound %.2fx)" name small large ratio
           bound)
        true (ratio <= bound))
    checked

(* A converged build stages one row per directed link where a rooted
   build stages one reach per node, and computes one export per node in
   each of its two passes where the rooted build computes one: at 4n
   nodes each converged build on a tree overlay allocates at most twice
   the words of the rooted build of the same scheme and overlay, rows
   not installed in either.  Power-law overlays are left out: their
   crossing rows need storage of their own. *)
let converged_per_rooted = 2.0

let check_converged_vs_rooted () =
  let large name =
    match List.find_opt (fun (n, _, _) -> n = name) (Lazy.force rows) with
    | Some (_, _, words) -> words
    | None -> Alcotest.fail (name ^ " not measured")
  in
  List.iter
    (fun overlay ->
      List.iter
        (fun (scheme, _) ->
          let row what = Printf.sprintf "%s %s %s" what scheme overlay in
          let converged = large (row "converged") and rooted = large (row "rooted") in
          let ratio = converged /. rooted in
          Alcotest.(check bool)
            (Printf.sprintf "%s at %d nodes: %.1f vs %.1f, %.2fx (bound %.2fx)"
               (row "converged") (4 * n) converged rooted ratio converged_per_rooted)
            true (ratio <= converged_per_rooted))
        schemes)
    trees

let suite =
  ( "growth",
    [
      Alcotest.test_case "topology is linear" `Quick (check_growth ~bound:linear "topology");
      Alcotest.test_case "placement is linear" `Quick
        (check_growth ~bound:linear "placement");
      Alcotest.test_case "rooted builds are linear" `Quick
        (check_growth ~bound:linear "rooted");
      Alcotest.test_case "converged builds are linear" `Quick
        (check_growth ~bound:linear "converged");
      Alcotest.test_case "a converged build costs at most twice a rooted one" `Quick
        check_converged_vs_rooted;
      Alcotest.test_case "a query is flat" `Quick (check_growth ~bound:flat_query "query");
      Alcotest.test_case "an update wave is at most linear" `Quick
        (check_growth ~bound:linear "wave");
      Alcotest.test_case "storage per node is flat" `Quick
        (check_growth ~bound:flat_storage "storage/node");
    ] )
