(* Network construction: converged and rooted RI states, content
   plumbing, compression projection. *)

open Ri_content
open Ri_core
open Ri_topology
open Ri_p2p

(* RI_GOLDEN_PRINT=1 prints the digests and per-node words being
   pinned below. *)
let golden_print = Sys.getenv_opt "RI_GOLDEN_PRINT" = Some "1"

let universe = Topic.paper_example

(* The paper's running example as actual document databases:
   A=0, B=1, C=2, D=3, I=4, J=5 with links A-B, A-C, A-D, D-I, D-J.
   Locals match Figure 4/5: A (300: 30/80/0/10), B (100: 20/0/10/30),
   C (1000: 0/300/0/50), D (200: 100/0/100/150), I (50: 25/0/15/50),
   J (50: 15/0/25/25). *)
let locals =
  [|
    (300, [| 30; 80; 0; 10 |]);
    (100, [| 20; 0; 10; 30 |]);
    (1000, [| 0; 300; 0; 50 |]);
    (200, [| 100; 0; 100; 150 |]);
    (50, [| 25; 0; 15; 50 |]);
    (50, [| 15; 0; 25; 25 |]);
  |]

let paper_graph () =
  Graph.of_edges ~n:6 [ (0, 1); (0, 2); (0, 3); (3, 4); (3, 5) ]

let paper_content () =
  {
    Network.summary =
      (fun v ->
        let total, by_topic = locals.(v) in
        Summary.of_counts ~total ~by_topic);
    count_matching = (fun _ _ -> 0);
  }

let make ?scheme ?compression ?cycle_policy ?mode () =
  Network.create ~graph:(paper_graph ()) ~content:(paper_content ()) ?scheme
    ?compression ?cycle_policy ?mode ()

let get_row net v peer =
  match Scheme.row (Network.ri net v) ~peer with
  | Some (Scheme.Vector s) -> s
  | Some (Scheme.Hop_vector _) -> Alcotest.fail "unexpected hop vector"
  | None -> Alcotest.fail (Printf.sprintf "missing row %d at %d" peer v)

let check_row msg net v peer (total, by_topic) =
  let r = get_row net v peer in
  Alcotest.(check bool) msg true
    (Summary.approx_equal ~eps:1e-6 r (Summary.of_counts ~total ~by_topic))

let test_figure4_converged_cri () =
  let net = make ~scheme:Scheme.Cri_kind () in
  (* Figure 5(b): D's row for A is the aggregate (1400, 50, 380, 10, 90);
     A's rows for B and C are their local summaries; D's rows for I and
     J likewise. *)
  check_row "D's row for A" net 3 0 (1400, [| 50; 380; 10; 90 |]);
  check_row "A's row for B" net 0 1 (100, [| 20; 0; 10; 30 |]);
  check_row "A's row for C" net 0 2 (1000, [| 0; 300; 0; 50 |]);
  check_row "A's row for D" net 0 3 (300, [| 140; 0; 140; 225 |]);
  check_row "D's row for I" net 3 4 (50, [| 25; 0; 15; 50 |]);
  (* I's row for D per the aggregation rule: D's local plus the rows for
     A and J — 200 + 1400 + 50 documents. *)
  check_row "I's row for D" net 4 3 (1650, [| 165; 380; 135; 265 |])

let test_structure_accessors () =
  let net = make ~scheme:Scheme.Cri_kind () in
  Alcotest.(check int) "size" 6 (Network.size net);
  Alcotest.(check int) "degree of A" 3 (Network.degree net 0);
  Alcotest.(check bool) "link present" true (Network.has_link net 0 3);
  Alcotest.(check bool) "link absent" false (Network.has_link net 1 2);
  Alcotest.(check bool) "has RI" true (Network.has_ri net)

let test_no_ri_network () =
  let net = make () in
  Alcotest.(check bool) "no RI" false (Network.has_ri net);
  Alcotest.check_raises "ri accessor" (Invalid_argument "Network.ri: No-RI network")
    (fun () -> ignore (Network.ri net 0));
  Alcotest.(check (list Alcotest.reject)) "no exports" []
    (List.map (fun _ -> assert false) (Network.outgoing_exports net 0))

let test_rooted_matches_converged_on_tree () =
  (* On a tree, the rooted construction restricted to the directions a
     query can take equals the converged rows. *)
  let conv = make ~scheme:Scheme.Cri_kind () in
  let rooted = make ~scheme:Scheme.Cri_kind ~mode:(Network.Rooted 0) () in
  List.iter
    (fun (v, peer) ->
      Alcotest.(check bool)
        (Printf.sprintf "row %d->%d" v peer)
        true
        (Summary.approx_equal ~eps:1e-6 (get_row conv v peer)
           (get_row rooted v peer)))
    [ (0, 1); (0, 2); (0, 3); (3, 4); (3, 5) ];
  (* And the rooted RI holds no upstream rows. *)
  Alcotest.(check bool) "no row back to the origin" true
    (Scheme.row (Network.ri rooted 3) ~peer:0 = None)

let test_rooted_origin_validation () =
  Alcotest.check_raises "origin range"
    (Invalid_argument "Network.create: rooted origin out of range") (fun () ->
      ignore (make ~scheme:Scheme.Cri_kind ~mode:(Network.Rooted 17) ()));
  (* No index to build, but the origin is validated all the same. *)
  List.iter
    (fun origin ->
      Alcotest.check_raises
        (Printf.sprintf "No-RI origin %d" origin)
        (Invalid_argument "Network.create: rooted origin out of range")
        (fun () -> ignore (make ~mode:(Network.Rooted origin) ())))
    [ 17; 6; -1 ];
  Alcotest.(check bool) "No-RI origin in range" false
    (Network.has_ri (make ~mode:(Network.Rooted 5) ()))

let test_cri_noop_cycles_rejected () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  let content =
    { Network.summary = (fun _ -> Summary.of_counts ~total:1 ~by_topic:[| 1 |]);
      count_matching = (fun _ _ -> 0) }
  in
  Alcotest.check_raises "cri noop cyclic"
    (Invalid_argument
       "Network.create: a compound RI under the no-op cycle policy does not \
        terminate on a cyclic network (paper, Section 7)") (fun () ->
      ignore
        (Network.create ~graph:g ~content ~scheme:Scheme.Cri_kind
           ~cycle_policy:Network.No_op ()))

let test_cyclic_rows_exist_on_all_links () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let content =
    { Network.summary = (fun v -> Summary.of_counts ~total:(v + 1) ~by_topic:[| v + 1 |]);
      count_matching = (fun _ _ -> 0) }
  in
  let net = Network.create ~graph:g ~content ~scheme:(Scheme.Eri_kind { fanout = 4. }) () in
  for v = 0 to 3 do
    Array.iter
      (fun u ->
        Alcotest.(check bool)
          (Printf.sprintf "row %d at %d" u v)
          true
          (Scheme.row (Network.ri net v) ~peer:u <> None))
      (Network.neighbors net v)
  done

let test_compression_projection () =
  let compression =
    Compression.Buckets { buckets = 2; mode = Compression.Overcount }
  in
  let net = make ~scheme:Scheme.Cri_kind ~compression () in
  (* A's local summary in bucket space: buckets {t0,t2} and {t1,t3}. *)
  let s = Network.local_summary net 0 in
  Alcotest.(check int) "projected width" 2 (Summary.topics s);
  Alcotest.(check (float 1e-9)) "bucket 0 = db+theory" 30. (Summary.get s 0);
  Alcotest.(check (float 1e-9)) "bucket 1 = net+lang" 90. (Summary.get s 1);
  Alcotest.(check (list int)) "query projection" [ 0; 1 ]
    (Network.project_query net [ 0; 1; 2 ]);
  (* The raw summary stays unprojected. *)
  Alcotest.(check int) "raw width" 4 (Summary.topics (Network.raw_local_summary net 0))

let test_set_local_summary () =
  let net = make ~scheme:Scheme.Cri_kind () in
  Network.set_local_summary net 4 (Summary.of_counts ~total:60 ~by_topic:[| 25; 0; 15; 60 |]);
  let s = Network.local_summary net 4 in
  Alcotest.(check (float 1e-9)) "updated" 60. s.Summary.total;
  Network.refresh_local net 4;
  Alcotest.(check (float 1e-9)) "refresh re-reads content" 50.
    (Network.local_summary net 4).Summary.total

let test_link_mutation () =
  let net = make ~scheme:Scheme.Cri_kind () in
  Network.add_link net 1 2;
  Alcotest.(check bool) "added" true (Network.has_link net 1 2);
  Alcotest.check_raises "duplicate" (Invalid_argument "Network.add_link: link exists")
    (fun () -> Network.add_link net 1 2);
  Network.remove_link net 1 2;
  Alcotest.(check bool) "removed" false (Network.has_link net 1 2);
  Alcotest.check_raises "missing"
    (Invalid_argument "Network.remove_link: link not present") (fun () ->
      Network.remove_link net 1 2)

let test_export_to () =
  let net = make ~scheme:Scheme.Cri_kind () in
  match Network.export_to net 0 ~peer:3 with
  | Scheme.Vector e ->
      Alcotest.(check (float 1e-9)) "figure 5 vector" 1400. e.Summary.total
  | Scheme.Hop_vector _ -> Alcotest.fail "expected vector"

(* {2 Rooted and converged rows, pinned bit for bit}

   One MD5 per build over every node's index: its storage bytes, its
   peers in the store's iteration order (the float summation order of
   every export) and each row's IEEE bits.  The matrix crosses two build
   modes with the four schemes and four overlays — the three generators
   and a tree cut into two components — and two row formats: exact, and
   exports perturbed through [Trial.build ~perturb].  Converged builds
   of the generated overlays go through [Trial.build ~purpose:
   For_update], and the cut tree goes through [Network.create
   ~mode:Converged].  N = 300, seed 42, trial 0.  Rows are read node by
   node through [Network.ri], which installs each node's rows.  Regenerate with RI_GOLDEN_PRINT=1 only
   when a change is meant to alter the rows, and say so in the
   commit. *)

let rooted_base =
  Ri_sim.Config.scaled { Ri_sim.Config.base with Ri_sim.Config.seed = 42 }
    ~num_nodes:300

let rooted_kinds =
  let c = rooted_base in
  Ri_sim.Config.[ cri; hri c; eri c; hybrid c ]

let rooted_perturb = (0.2, Compression.Mixed)

let rooted_digest net =
  let buf = Buffer.create 65536 in
  let bits x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  let summary (s : Summary.t) =
    bits s.Summary.total;
    Array.iter bits s.Summary.by_topic
  in
  for v = 0 to Network.size net - 1 do
    let ri = Network.ri net v in
    Printf.bprintf buf "node %d bytes %d\n" v (Scheme.storage_bytes ri);
    Array.iter
      (fun peer ->
        Printf.bprintf buf "peer %d\n" peer;
        match Scheme.row ri ~peer with
        | Some (Scheme.Vector s) -> summary s
        | Some (Scheme.Hop_vector r) -> Array.iter summary r
        | None -> Alcotest.fail "iteration peer without a row")
      (Rowstore.iteration_peers (Scheme.rowstore ri))
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The seed-42 tree with its middle edge (in edge-list order) removed:
   a rooted build gives the origin's component rows and the other none;
   a converged build gives both components their own rows. *)
let two_components mode kind fmt =
  let cfg =
    Ri_sim.Config.with_search rooted_base (Ri_sim.Config.Ri kind)
  in
  let setup = Ri_sim.Trial.build cfg ~trial:0 in
  let n = Network.size setup.Ri_sim.Trial.network in
  let edges = ref [] in
  for u = n - 1 downto 0 do
    Array.iter
      (fun v -> if u < v then edges := (u, v) :: !edges)
      (Network.neighbors setup.Ri_sim.Trial.network u)
  done;
  let cut = List.length !edges / 2 in
  let graph = Graph.of_edges ~n (List.filteri (fun i _ -> i <> cut) !edges) in
  let reached =
    Array.fold_left
      (fun acc d -> if d < max_int then acc + 1 else acc)
      0
      (Graph.bfs_distances graph setup.Ri_sim.Trial.origin)
  in
  Alcotest.(check bool) "both components have links" true
    (reached > 1 && reached < n - 1);
  let perturb, rng =
    match fmt with
    | `Exact -> (None, None)
    | `Perturbed -> (Some rooted_perturb, Some (Ri_util.Prng.create 42))
  in
  let mode =
    match mode with
    | `Rooted -> Network.Rooted setup.Ri_sim.Trial.origin
    | `Converged -> Network.Converged
  in
  Network.create ~graph
    ~content:(Network.content_of_placement setup.Ri_sim.Trial.placement)
    ~scheme:kind ?perturb ?rng ~mode ()

let rows_build mode kind topology fmt =
  match topology with
  | `Two_components -> two_components mode kind fmt
  | (`Tree | `Cycles | `Power_law) as topology ->
      let cfg =
        {
          rooted_base with
          Ri_sim.Config.search = Ri_sim.Config.Ri kind;
          topology =
            (match topology with
            | `Tree -> Ri_sim.Config.Tree
            | `Cycles -> Ri_sim.Config.Tree_with_cycles { extra_links = 30 }
            | `Power_law -> Ri_sim.Config.Power_law_graph);
        }
      in
      let perturb = match fmt with `Perturbed -> Some rooted_perturb | `Exact -> None in
      let purpose =
        match mode with
        | `Rooted -> Ri_sim.Trial.For_query
        | `Converged -> Ri_sim.Trial.For_update
      in
      (Ri_sim.Trial.build ~purpose ?perturb cfg ~trial:0).Ri_sim.Trial.network

let expected_rooted_digests =
  [
    ("CRI tree exact", "f4de8aed3298f25dfd0254c6d8b9faca");
    ("CRI tree perturbed", "a8e862c66c1e625e45eaab693de6170e");
    ("CRI cycles exact", "4be18549831f004dcf7b13df2f0bfcff");
    ("CRI cycles perturbed", "2bbca20d5857aa269f1a142a60a30393");
    ("CRI powerlaw exact", "f22aac37d8ee89f70ea01f37435994d7");
    ("CRI powerlaw perturbed", "80f0999f1e74a24846598de68af76087");
    ("CRI split exact", "6f7ce3677f504dab380bdced97e867c5");
    ("CRI split perturbed", "86e451ef115acc27b4cf34a652c3bce9");
    ("HRI tree exact", "6e1aa154547e8c3e332c9ee523b83731");
    ("HRI tree perturbed", "7e1d702a0b5abf40e587390a48cb9b02");
    ("HRI cycles exact", "6fee9739d645c4799e2248392bb9dde2");
    ("HRI cycles perturbed", "65dd633bb583d49b960185d78863be09");
    ("HRI powerlaw exact", "bc4c3f911f5dfe45a09125dcfbcdaafe");
    ("HRI powerlaw perturbed", "7c39ef3945417975845647616ae73634");
    ("HRI split exact", "048ecfb74f334e285325e5c0b602e701");
    ("HRI split perturbed", "12c291811811877ed37ef22e0ea63e23");
    ("ERI tree exact", "c700de1469446968d1ab61aaa609ad58");
    ("ERI tree perturbed", "7492786bd22dc3672ae23d07c3a0d9f3");
    ("ERI cycles exact", "70b63db801ba063f3edb7a2f1955b4b2");
    ("ERI cycles perturbed", "87c38c2f3df3c9641ebb04e74c6c8e8c");
    ("ERI powerlaw exact", "2b67313965ad5bee11c264abda626250");
    ("ERI powerlaw perturbed", "8a0d60fbd3da6cf97fa504779a1289ed");
    ("ERI split exact", "3842bfc04147c9a26731ec4824ff4f42");
    ("ERI split perturbed", "9528e6968850d1a5d9e6afda900430ee");
    ("HYB tree exact", "962ea0ba4bce98807de69af95356dea6");
    ("HYB tree perturbed", "4cdf663540033988c6f67b7f48929263");
    ("HYB cycles exact", "6477bcf1cca6799f7ca34c5faa481165");
    ("HYB cycles perturbed", "4c1ba60381e750568531e6347fcc6b62");
    ("HYB powerlaw exact", "de104b6e6758c47d20533819c1725cc2");
    ("HYB powerlaw perturbed", "fd926199457416f27f85f796ac8769d4");
    ("HYB split exact", "78ee6c92d6ba86552fd4249cba935503");
    ("HYB split perturbed", "5e453442ade91075198e006250a68593");
    ("converged CRI tree exact", "ed20c29d4dbba033e39087a42b487a64");
    ("converged CRI tree perturbed", "3adceab9934b3f2d6c69c383ae113326");
    ("converged CRI cycles exact", "72a710268cec72f62b1e369131524222");
    ("converged CRI cycles perturbed", "5dd26070b72a0a725199b4f9971a4f19");
    ("converged CRI powerlaw exact", "685996f9b70d4e35be0c52483a8747ee");
    ("converged CRI powerlaw perturbed", "df1fe47b2179242ea7938e9e981f92fe");
    ("converged CRI split exact", "d56df7685c40101feaa7b9a1716be793");
    ("converged CRI split perturbed", "2737fee855b62be811c62648a9d6a5a2");
    ("converged HRI tree exact", "563749b1ca334f8408d6728718a9ad7c");
    ("converged HRI tree perturbed", "84d0b35cb0819ca2ed70641cfaabe407");
    ("converged HRI cycles exact", "c1ca0aadafdd2a9630b482bcd10e0126");
    ("converged HRI cycles perturbed", "b76cc494ecaaabac799ae729586eb1a5");
    ("converged HRI powerlaw exact", "6377c6ecedca90fec1482022ba6f731a");
    ("converged HRI powerlaw perturbed", "c338eeab6fd0577890288189fd2d0d7c");
    ("converged HRI split exact", "00b7c9441fc46b44fad59022fb6b09c2");
    ("converged HRI split perturbed", "f9c67426a1a573a748a5f395c34fe9b1");
    ("converged ERI tree exact", "59691ba9497d7f712064e26c2fb301a4");
    ("converged ERI tree perturbed", "b4175783c9ae84e3a99417112b787657");
    ("converged ERI cycles exact", "6556a8e559eb5887c2aa8f75105d1b42");
    ("converged ERI cycles perturbed", "783acb7acfa5ec1abbe9eee2cbe54a1f");
    ("converged ERI powerlaw exact", "9ee0f2de7652f695b4a6511b8ce834f4");
    ("converged ERI powerlaw perturbed", "5b9317a9550f4235b10e0ab865c0ae2c");
    ("converged ERI split exact", "48d6d4363354d605f2e686a4ece1c3d6");
    ("converged ERI split perturbed", "651fe3253c99075ca4b401aefc8292fd");
    ("converged HYB tree exact", "ba9ac18eb2af1e425055916e42d7fed0");
    ("converged HYB tree perturbed", "366dcdd86c8461b0e3088d2dcfa0525a");
    ("converged HYB cycles exact", "11d4f2963443a96cb9c47408ce2f95ff");
    ("converged HYB cycles perturbed", "13dff632ebf8348559821cb58f2da900");
    ("converged HYB powerlaw exact", "ff4985af2dd124ec9f124b8b457aa70f");
    ("converged HYB powerlaw perturbed", "65ddd650e612b9158ff0df73a7edd732");
    ("converged HYB split exact", "7c6ca0982639f8adf03fec637b5c7fc5");
    ("converged HYB split perturbed", "0b9b7bdbdad85ca2d9d91dcc8762f588");
  ]

let test_rooted_rows_golden () =
  let topologies =
    [
      ("tree", `Tree);
      ("cycles", `Cycles);
      ("powerlaw", `Power_law);
      ("split", `Two_components);
    ]
  in
  let digests mode prefix =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun (tname, topology) ->
            List.map
              (fun (fname, fmt) ->
                ( Printf.sprintf "%s%s %s %s" prefix (Scheme.kind_name kind)
                    tname fname,
                  rooted_digest (rows_build mode kind topology fmt) ))
              [ ("exact", `Exact); ("perturbed", `Perturbed) ])
          topologies)
      rooted_kinds
  in
  let digests = digests `Rooted "" @ digests `Converged "converged " in
  if golden_print then
    List.iter (fun (k, d) -> Printf.printf "    (%S, %S);\n" k d) digests;
  Alcotest.(check int) "builds" 64 (List.length digests);
  List.iter
    (fun (key, digest) ->
      Alcotest.(check (option string))
        (key ^ " digest")
        (List.assoc_opt key expected_rooted_digests)
        (Some digest))
    digests

(* {2 The rooted build's cost}

   On the seed-42, 2000-node tree of trial 1 (graph and placement in
   hand), a rooted [Network.create] allocates at most half the minor
   words per node the eager build did (CRI 197, ERI 234, HRI 421), and
   a query installs rows at no more nodes than it visits. *)

let test_rooted_build_cost () =
  let cfg =
    Ri_sim.Config.scaled { Ri_sim.Config.base with Ri_sim.Config.seed = 42 }
      ~num_nodes:2000
  in
  let setup = Ri_sim.Trial.build cfg ~trial:1 in
  let net = setup.Ri_sim.Trial.network in
  let n = Network.size net in
  let graph = Graph.of_sorted_adjacency (Array.init n (Network.neighbors net)) in
  let content = Network.content_of_placement setup.Ri_sim.Trial.placement in
  let mode = Network.Rooted setup.Ri_sim.Trial.origin in
  List.iter
    (fun (kind, eager) ->
      let build () = Network.create ~graph ~content ~scheme:kind ~mode () in
      ignore (build ());
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (build ()));
      let per_node = (Gc.minor_words () -. w0) /. float_of_int n in
      if golden_print then
        Printf.printf "rooted create %s: %.1f minor words per node\n"
          (Scheme.kind_name kind) per_node;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words per node, at most %d / 2"
           (Scheme.kind_name kind) per_node eager)
        true
        (per_node <= float_of_int eager /. 2.))
    Ri_sim.Config.[ (cri, 197); (eri cfg, 234); (hri cfg, 421) ];
  let installs = Ri_obs.Metrics.counter "ri_rooted_installs_total" in
  let was_on = Ri_obs.Metrics.enabled () in
  Ri_obs.Metrics.set_enabled true;
  let before = Ri_obs.Metrics.counter_value installs in
  let m =
    Fun.protect
      ~finally:(fun () -> Ri_obs.Metrics.set_enabled was_on)
      (fun () -> Ri_sim.Trial.run_query_on cfg setup)
  in
  let installed = Ri_obs.Metrics.counter_value installs - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d installs, %d nodes visited" installed
       m.Ri_sim.Trial.nodes_visited)
    true
    (installed > 0 && installed <= m.Ri_sim.Trial.nodes_visited)

(* {2 Converged rows installed on read}

   On the seed-42, 2000-node tree of trial 1, a converged build installs
   no node; an ERI update wave installs at most the nodes it reaches
   (its origin and one per message), [storage_words] installs the rest,
   and no node is installed twice. *)

let test_converged_installs_on_read () =
  let cfg =
    Ri_sim.Config.scaled { Ri_sim.Config.base with Ri_sim.Config.seed = 42 }
      ~num_nodes:2000
  in
  let installs = Ri_obs.Metrics.counter "ri_converged_installs_total" in
  let was_on = Ri_obs.Metrics.enabled () in
  Ri_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Ri_obs.Metrics.set_enabled was_on)
    (fun () ->
      let count () = Ri_obs.Metrics.counter_value installs in
      let c0 = count () in
      let setup = Ri_sim.Trial.build ~purpose:Ri_sim.Trial.For_update cfg ~trial:1 in
      let net = setup.Ri_sim.Trial.network in
      Alcotest.(check int) "none at build" c0 (count ());
      let m = Ri_sim.Trial.run_update_on cfg setup in
      let waved = count () - c0 in
      Alcotest.(check bool)
        (Printf.sprintf "%d installs, %d messages" waved m.Ri_sim.Trial.update_messages)
        true
        (waved > 0 && waved <= m.Ri_sim.Trial.update_messages + 1);
      ignore (Network.storage_words net);
      Alcotest.(check int) "every node once" (Network.size net) (count () - c0);
      ignore (Network.storage_words net);
      Alcotest.(check int) "never twice" (Network.size net) (count () - c0))

(* {2 Rooted and converged builds agree on trees}

   On a random tree, a rooted and a converged network built by
   [Network.create] from one graph, one content and one origin make the
   same query walk, event for event, and every row the rooted build
   installs equals the converged row for the same (node, peer) bit for
   bit.  The draw covers the size, the seed, the scheme and the cycle
   policy. *)

let payload_bits = function
  | Scheme.Vector s -> [ s ]
  | Scheme.Hop_vector r -> Array.to_list r

let bits_equal a b =
  let bits (s : Summary.t) =
    Int64.bits_of_float s.Summary.total
    :: Array.to_list (Array.map Int64.bits_of_float s.Summary.by_topic)
  in
  List.map bits (payload_bits a) = List.map bits (payload_bits b)

let rooted_converged_case =
  QCheck.(
    make
      ~print:(fun (n, seed, k, noop) ->
        Printf.sprintf "n=%d seed=%d kind=%d no_op=%b" n seed k noop)
      Gen.(quad (int_range 2 300) (int_bound 100_000) (int_bound 3) bool))

let prop_rooted_converged_agree =
  let open Ri_sim in
  QCheck.Test.make ~name:"rooted and converged builds agree on trees" ~count:150
    rooted_converged_case (fun (n, seed, k, noop) ->
      let cfg = Config.scaled { Config.base with Config.seed } ~num_nodes:n in
      let rng = Ri_util.Prng.create seed in
      let graph = Tree_gen.random_labels rng ~n ~fanout:cfg.Config.fanout in
      let universe = Topic.make cfg.Config.topics in
      let query = Workload.random_single rng universe ~stop:cfg.Config.stop_condition in
      let placement =
        Placement.distribute rng ~universe ~n ~query_topics:query.Workload.topics
          ~results:cfg.Config.query_results ~distribution:cfg.Config.distribution
          ~background_per_node:cfg.Config.background_per_node ()
      in
      let origin = Ri_util.Prng.int rng n in
      let build mode =
        Network.create ~graph ~content:(Network.content_of_placement placement)
          ~scheme:(List.nth Config.[ cri; hri cfg; eri cfg; hybrid cfg ] k)
          ~compression:(Config.compression cfg)
          ~cycle_policy:(if noop then Network.No_op else Network.Detect_recover)
          ~mode ()
      in
      let rooted = build (Network.Rooted origin) in
      let converged = build Network.Converged in
      let walk net =
        let events = ref [] in
        ignore
          (Query.run ~rng:(Ri_util.Prng.create 7)
             ~on_event:(fun e -> events := e :: !events)
             net ~origin ~query ~forwarding:Query.Ri_guided);
        List.rev !events
      in
      walk rooted = walk converged
      && List.for_all
           (fun v ->
             let r = Network.ri rooted v and c = Network.ri converged v in
             List.for_all
               (fun peer ->
                 match (Scheme.row r ~peer, Scheme.row c ~peer) with
                 | Some a, Some b -> bits_equal a b
                 | Some _, None | None, _ -> false)
               (Scheme.peers r))
           (List.init n Fun.id))

let suite =
  ( "network",
    [
      Alcotest.test_case "figure 4/5 converged CRI" `Quick test_figure4_converged_cri;
      Alcotest.test_case "structure accessors" `Quick test_structure_accessors;
      Alcotest.test_case "no-RI network" `Quick test_no_ri_network;
      Alcotest.test_case "rooted = converged on trees" `Quick test_rooted_matches_converged_on_tree;
      Alcotest.test_case "rooted origin validation" `Quick test_rooted_origin_validation;
      Alcotest.test_case "CRI no-op cycles rejected" `Quick test_cri_noop_cycles_rejected;
      Alcotest.test_case "cyclic rows on all links" `Quick test_cyclic_rows_exist_on_all_links;
      Alcotest.test_case "compression projection" `Quick test_compression_projection;
      Alcotest.test_case "set local summary" `Quick test_set_local_summary;
      Alcotest.test_case "link mutation" `Quick test_link_mutation;
      Alcotest.test_case "export_to" `Quick test_export_to;
      Alcotest.test_case "rooted rows bit-identical at 300 nodes" `Quick
        test_rooted_rows_golden;
      Alcotest.test_case "rooted build cost and installs" `Quick
        test_rooted_build_cost;
      Alcotest.test_case "converged rows installed on read" `Quick
        test_converged_installs_on_read;
      QCheck_alcotest.to_alcotest prop_rooted_converged_agree;
    ] )
