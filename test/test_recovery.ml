(* Partition & recovery plane: crash-recovery rejoin (amnesiac and
   stale-state), persist/restore bit-identity, anti-entropy
   reconvergence and idempotence, partition sever/heal semantics,
   pool-width bit-identity of recovery trials, and the chaos checker's
   sabotage self-test. *)

open Ri_content
open Ri_core
open Ri_topology
open Ri_p2p
open Ri_sim

(* A small line network: 0-1-2-...-(n-1), one topic, one document per
   node — the same fixture as Test_fault, where every RI fixpoint is
   easy to reason about. *)
let line_net n =
  let graph = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let content =
    {
      Network.summary = (fun _ -> Summary.of_counts ~total:1 ~by_topic:[| 1 |]);
      count_matching = (fun _ _ -> 1);
    }
  in
  Network.create ~graph ~content ~scheme:Scheme.Cri_kind ()

let line_neighbors n v =
  Array.of_list
    (List.filter (fun u -> u >= 0 && u < n) [ v - 1; v + 1 ])

let rows_snapshot net =
  List.init (Network.size net) (fun v ->
      List.map
        (fun p -> (p, Scheme.row (Network.ri net v) ~peer:p))
        (Scheme.peers (Network.ri net v)))

(* No planned crashes: these unit tests kill nodes by hand with
   [Churn.crash_stop] so the corpse set is exactly what the test says —
   a [crash] probability would add plan-dead victims that anti-entropy's
   failure detector would then repair, wrecking fixpoint comparisons. *)
let recovery_spec =
  { Fault.none with Fault.retries = 1; backoff = 0; stale_after = Some 1 }

let ae_to_quiescence ?(cap = 64) ~plan net =
  let counters = Message.create () in
  let rounds = ref 0 and last = ref 1 in
  while !last > 0 && !rounds < cap do
    last := Update.anti_entropy ~plan net ~counters;
    incr rounds
  done;
  (!rounds, !last)

let test_persist_restore_roundtrip () =
  let net = line_net 7 in
  let plan = Fault.make recovery_spec ~seed:5 ~trial:0 ~nodes:7 ~protect:[ 0 ] in
  let before = List.nth (rows_snapshot net) 3 in
  let image = Churn.persist_rows net 3 in
  Churn.crash_stop net 3 ~plan;
  Churn.recover net 3 ~rejoin:(Churn.Stale_state image) ~plan
    ~counters:(Message.create ());
  Alcotest.(check bool) "node alive again" false (Fault.is_dead plan 3);
  Alcotest.(check bool) "rows restored bit-identically" true
    (List.nth (rows_snapshot net) 3 = before)

(* A CRI row image built by hand: the persist layout, one vector row per
   (peer, total, per-topic cells). *)
let cri_image rows =
  let b = Buffer.create 64 in
  Buffer.add_string b "RIROWS01";
  Buffer.add_int32_le b (Int32.of_int (List.length rows));
  List.iter
    (fun (peer, total, cells) ->
      Buffer.add_int32_le b (Int32.of_int peer);
      Buffer.add_int32_le b 0l;
      Buffer.add_int64_le b (Int64.bits_of_float total);
      Buffer.add_int32_le b (Int32.of_int (Array.length cells));
      Array.iter (fun c -> Buffer.add_int64_le b (Int64.bits_of_float c)) cells)
    rows;
  Buffer.to_bytes b

let corrupt_prefix = "Churn.recover: corrupt stale state: "

(* Every refused image raises the documented error before anything
   changes: the node stays crash-stopped and keeps its rows. *)
let test_persist_rejects_corrupt () =
  let net = line_net 7 in
  let plan = Fault.make recovery_spec ~seed:5 ~trial:0 ~nodes:7 ~protect:[ 0 ] in
  let image = Churn.persist_rows net 3 in
  let before = List.nth (rows_snapshot net) 3 in
  Churn.crash_stop net 3 ~plan;
  let recover image () =
    Churn.recover net 3 ~rejoin:(Churn.Stale_state image) ~plan
      ~counters:(Message.create ())
  in
  let unchanged name =
    Alcotest.(check bool) (name ^ ": still crash-stopped") true
      (Fault.is_dead plan 3);
    Alcotest.(check bool) (name ^ ": rows unchanged") true
      (List.nth (rows_snapshot net) 3 = before)
  in
  let bad_magic = Bytes.copy image in
  Bytes.set bad_magic 0 'X';
  Alcotest.check_raises "corrupt magic rejected"
    (Invalid_argument (corrupt_prefix ^ "bad magic"))
    (recover bad_magic);
  unchanged "bad magic";
  List.iter
    (fun (name, image) ->
      (match recover image () with
      | () -> Alcotest.failf "%s: accepted" name
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S is the documented error" name msg)
            true
            (String.starts_with ~prefix:corrupt_prefix msg));
      unchanged name)
    [
      ("truncated image", Bytes.sub image 0 (Bytes.length image - 4));
      ("negative cell", cri_image [ (2, 3., [| -1. |]) ]);
      ("width-2 summary", cri_image [ (2, 3., [| 1.; 2. |]) ]);
      ("NaN cell", cri_image [ (2, Float.nan, [| 1. |]) ]);
      ("infinite cell", cri_image [ (2, 3., [| Float.infinity |]) ]);
      ("trailing bytes", Bytes.cat image (Bytes.make 8 '\000'));
    ];
  recover image ();
  Alcotest.(check bool) "the intact image still restores" true
    (List.nth (rows_snapshot net) 3 = before)

(* Byte flips and truncations of a persisted image, for each scheme on a
   30-node tree built afresh for each case: each either is refused with
   the documented error, leaving the node crash-stopped with its rows,
   or restores only finite, non-negative cells. *)
let fuzz_nets =
  lazy
    (let cfg = Config.scaled { Config.base with Config.seed = 11 } ~num_nodes:30 in
     List.map
       (fun search ->
         let cfg = Config.with_search cfg (Config.Ri search) in
         let build () = (Trial.build ~purpose:Trial.For_update cfg ~trial:0).Trial.network in
         let net = build () in
         (* The best-linked node, so the image holds several rows. *)
         let v = ref 0 in
         for u = 1 to Network.size net - 1 do
           if Network.degree net u > Network.degree net !v then v := u
         done;
         (build, !v))
       Config.[ cri; hri cfg; eri cfg ])

let payload_cells = function
  | Scheme.Vector s -> [ s ]
  | Scheme.Hop_vector r -> Array.to_list r

let sound_cell x = Float.is_finite x && x >= 0.

let prop_stale_image_fuzz =
  QCheck.Test.make ~name:"stale image flips and truncations refused or sound"
    ~count:300
    QCheck.(
      triple (int_range 0 2) bool (pair (int_range 0 100_000) (int_range 1 255)))
    (fun (scheme, truncate, (at, flip)) ->
      let build, v = List.nth (Lazy.force fuzz_nets) scheme in
      let net = build () in
      let image = Churn.persist_rows net v in
      let at = at mod Bytes.length image in
      let image =
        if truncate then Bytes.sub image 0 at
        else begin
          let b = Bytes.copy image in
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor flip));
          b
        end
      in
      let plan =
        Fault.make recovery_spec ~seed:3 ~trial:0 ~nodes:(Network.size net)
          ~protect:[]
      in
      let rows () =
        let ri = Network.ri net v in
        List.map (fun p -> (p, Scheme.row ri ~peer:p)) (Scheme.peers ri)
      in
      let before = rows () in
      Churn.crash_stop net v ~plan;
      match
        Churn.recover net v ~rejoin:(Churn.Stale_state image) ~plan
          ~counters:(Message.create ())
      with
      | exception Invalid_argument msg ->
          String.starts_with ~prefix:corrupt_prefix msg
          && Fault.is_dead plan v
          && rows () = before
      | () ->
          List.for_all
            (fun (_, row) ->
              match row with
              | None -> false
              | Some payload ->
                  List.for_all
                    (fun (s : Summary.t) ->
                      sound_cell s.Summary.total
                      && Array.for_all sound_cell s.Summary.by_topic)
                    (payload_cells payload))
            (rows ()))

(* Both rejoin flavors must converge back to the pre-crash fixpoint
   once anti-entropy runs dry: the content never changed, so the
   fault-free rows *are* the unique fixpoint. *)
let rejoin_converges rejoin_of () =
  let net = line_net 9 in
  let fixpoint = rows_snapshot net in
  let plan = Fault.make recovery_spec ~seed:7 ~trial:0 ~nodes:9 ~protect:[ 0 ] in
  let image = Churn.persist_rows net 4 in
  Churn.crash_stop net 4 ~plan;
  (* Both neighbors notice the silence and repair their indices — the
     usual lazy path a query's timeouts would take. *)
  ignore (Churn.detect_crash net 3 ~dead:4 ~plan);
  ignore (Churn.detect_crash net 5 ~dead:4 ~plan);
  Alcotest.(check bool) "corpse rows removed" true
    (Scheme.row (Network.ri net 3) ~peer:4 = None
    && Scheme.row (Network.ri net 5) ~peer:4 = None);
  Churn.recover net 4 ~rejoin:(rejoin_of image) ~plan
    ~counters:(Message.create ());
  let rounds, last = ae_to_quiescence ~plan net in
  Alcotest.(check int) "anti-entropy ran dry" 0 last;
  Alcotest.(check bool) "a repair round happened" true (rounds >= 1);
  Alcotest.(check bool) "rows equal the pre-crash fixpoint" true
    (rows_snapshot net = fixpoint)

let test_amnesiac_rejoin_converges () =
  rejoin_converges (fun _ -> Churn.Amnesiac) ()

let test_stale_rejoin_converges () =
  rejoin_converges (fun image -> Churn.Stale_state image) ()

let test_anti_entropy_idempotent () =
  (* On a healthy, gap-free network a round repairs nothing and changes
     nothing — anti-entropy triggers on recorded gaps and dirt, never
     on content comparison (a content-triggered reconciler would chase
     its own tail on cyclic overlays). *)
  let net = line_net 7 in
  let plan = Fault.make recovery_spec ~seed:9 ~trial:0 ~nodes:7 ~protect:[ 0 ] in
  let before = rows_snapshot net in
  let counters = Message.create () in
  Alcotest.(check int) "no repairs on a healthy network" 0
    (Update.anti_entropy ~plan net ~counters);
  Alcotest.(check bool) "rows untouched" true (rows_snapshot net = before);
  (* Each of the 6 links costs exactly its two digest probes — a round
     that repaired nothing must charge nothing beyond the digests. *)
  Alcotest.(check int) "digest probes only, no full exchanges" 12
    counters.Message.update_messages;
  Alcotest.(check int) "digest-sized wire cost only"
    (12 * Message.wire_digest_bytes)
    counters.Message.update_wire_bytes

let partition_spec frac =
  { Fault.none with Fault.partition = frac; retries = 1; backoff = 0 }

let test_partition_severs_and_heals () =
  let n = 9 in
  let net = line_net n in
  let fixpoint = rows_snapshot net in
  let plan =
    Fault.make (partition_spec 0.3) ~neighbors:(line_neighbors n) ~seed:3
      ~trial:0 ~nodes:n ~protect:[]
  in
  Alcotest.(check bool) "cut active" true (Fault.partitioned plan);
  let cut = Fault.cut_size plan in
  Alcotest.(check bool) "minority side populated, strict" true
    (cut > 0 && cut < n);
  (* [same_side] is an equivalence: symmetric, reflexive. *)
  for u = 0 to n - 1 do
    Alcotest.(check bool) "reflexive" true (Fault.same_side plan u u);
    for v = 0 to n - 1 do
      Alcotest.(check bool) "symmetric" (Fault.same_side plan u v)
        (Fault.same_side plan v u)
    done
  done;
  (* A wave from one side never changes rows across the cut, and both
     endpoints of every severed hop record the gap. *)
  let origin = 0 in
  let other v = not (Fault.same_side plan origin v) in
  let before_other =
    List.filteri (fun v _ -> other v) (rows_snapshot net)
  in
  Update.local_change ~plan net ~origin
    ~summary:(Summary.of_counts ~total:50 ~by_topic:[| 50 |])
    ~counters:(Message.create ());
  let after_other = List.filteri (fun v _ -> other v) (rows_snapshot net) in
  Alcotest.(check bool) "far side frozen" true (after_other = before_other);
  Alcotest.(check bool) "partition drops counted" true
    ((Fault.stats plan).Fault.partition_drops > 0);
  (* Heal, then run anti-entropy dry: the gap ledger drives repairs
     across the former cut and the whole line reconverges on the new
     content's fixpoint. *)
  Fault.heal_partition plan;
  Alcotest.(check bool) "cut gone" false (Fault.partitioned plan);
  let _, last = ae_to_quiescence ~plan net in
  Alcotest.(check int) "anti-entropy ran dry" 0 last;
  (* Replay the same change on a clean twin for the expected rows. *)
  let clean = line_net n in
  Update.local_change clean ~origin
    ~summary:(Summary.of_counts ~total:50 ~by_topic:[| 50 |])
    ~counters:(Message.create ());
  Alcotest.(check bool) "healed network reaches the clean fixpoint" true
    (rows_snapshot net = rows_snapshot clean);
  Alcotest.(check bool) "fixpoint actually moved" true
    (rows_snapshot net <> fixpoint)

let test_auto_heal_after_waves () =
  let n = 9 in
  let net = line_net n in
  let spec = { (partition_spec 0.3) with Fault.heal_after = Some 1 } in
  let plan =
    Fault.make spec ~neighbors:(line_neighbors n) ~seed:3 ~trial:0 ~nodes:n
      ~protect:[]
  in
  Alcotest.(check bool) "cut active" true (Fault.partitioned plan);
  let bump total =
    Update.local_change ~plan net ~origin:0
      ~summary:(Summary.of_counts ~total ~by_topic:[| total |])
      ~counters:(Message.create ())
  in
  bump 10;
  Alcotest.(check bool) "survives the first wave" true
    (Fault.partitioned plan);
  bump 20;
  Alcotest.(check bool) "auto-heals on the next" false
    (Fault.partitioned plan)

(* The recovery trial must be bit-identical at any pool width — trials
   inside the runner wave run on domains, and every fault/recovery
   stream is keyed by (seed, trial), never by scheduling. *)
let with_jobs jobs f =
  let prev = Ri_util.Pool.jobs (Ri_util.Pool.global ()) in
  Ri_util.Pool.set_global_jobs jobs;
  Fun.protect ~finally:(fun () -> Ri_util.Pool.set_global_jobs prev) f

let recovery_cfg =
  let cfg = Config.scaled Config.base ~num_nodes:120 in
  {
    cfg with
    Config.fault =
      {
        Fault.none with
        Fault.update_loss = 0.1;
        crash = 0.1;
        drift = 0.5;
        partition = 0.3;
        stale_after = Some 1;
        retries = 2;
        backoff = 1;
        query_budget = Some 240;
      };
  }

let run_recovery_digest () =
  Setup_cache.clear ();
  List.init 3 (fun trial ->
      let m = Trial.run_recovery recovery_cfg ~trial in
      ( m.Trial.r_dip.Trial.messages,
        m.Trial.r_restored.Trial.messages,
        m.Trial.r_clean_found,
        m.Trial.r_dip_recall,
        m.Trial.r_restored_recall,
        m.Trial.r_cut_size,
        m.Trial.r_recovered,
        m.Trial.r_ae_rounds,
        m.Trial.r_ae_repairs,
        m.Trial.r_recovery_messages ))

let test_recovery_bit_identical_across_jobs () =
  let seq = with_jobs 1 run_recovery_digest in
  let par = with_jobs 4 run_recovery_digest in
  Alcotest.(check bool) "jobs 1 = jobs 4" true (seq = par)

let test_restored_recall_full () =
  (* With the weather quiesced, the cut healed and every victim
     recovered, the restored query must find the full clean count. *)
  let m = Trial.run_recovery recovery_cfg ~trial:0 in
  Alcotest.(check bool) "dip happened (cut or crash bit)" true
    (m.Trial.r_cut_size > 0 || m.Trial.r_recovered > 0);
  Alcotest.(check (float 1e-9)) "restored recall is 1" 1.
    m.Trial.r_restored_recall

let test_fault_seed_decouples () =
  (* Same fault_seed, different topology seeds: the plan's dead set
     depends only on the fault stream (same node count), so it must be
     identical; without fault_seed the two seeds diverge. *)
  let dead_set ~seed ~fault_seed =
    let plan =
      Fault.make
        { Fault.none with Fault.crash = 0.3 }
        ?fault_seed ~seed ~trial:0 ~nodes:100 ~protect:[]
    in
    List.init 100 (fun v -> Fault.is_dead plan v)
  in
  Alcotest.(check bool) "same fault seed, same victims" true
    (dead_set ~seed:1 ~fault_seed:(Some 99)
    = dead_set ~seed:2 ~fault_seed:(Some 99));
  Alcotest.(check bool) "different master seeds diverge" true
    (dead_set ~seed:1 ~fault_seed:None <> dead_set ~seed:2 ~fault_seed:None)

let test_chaos_clean_and_sabotaged () =
  (* A healthy plane passes a small chaos sweep with zero violations —
     and the sabotage self-test proves the fixpoint invariant has
     teeth (a checker that cannot fail checks nothing). *)
  let o =
    Ri_experiments.Chaos.run ~nodes:60 ~schedules:6 ~steps:8 ~seed:42 ()
  in
  Alcotest.(check int) "no violations on the healthy plane" 0
    (List.length o.Ri_experiments.Chaos.c_violations);
  let s =
    Ri_experiments.Chaos.run ~sabotage:true ~nodes:60 ~schedules:2 ~steps:6
      ~seed:42 ()
  in
  Alcotest.(check bool) "sabotage is caught" true
    (List.exists
       (fun v -> v.Ri_experiments.Chaos.v_invariant = "fixpoint")
       s.Ri_experiments.Chaos.c_violations)

let suite =
  ( "recovery",
    [
      Alcotest.test_case "persist/restore round-trips" `Quick
        test_persist_restore_roundtrip;
      Alcotest.test_case "corrupt stale image rejected" `Quick
        test_persist_rejects_corrupt;
      QCheck_alcotest.to_alcotest prop_stale_image_fuzz;
      Alcotest.test_case "amnesiac rejoin converges" `Quick
        test_amnesiac_rejoin_converges;
      Alcotest.test_case "stale-state rejoin converges" `Quick
        test_stale_rejoin_converges;
      Alcotest.test_case "anti-entropy is idempotent" `Quick
        test_anti_entropy_idempotent;
      Alcotest.test_case "partition severs and heals" `Quick
        test_partition_severs_and_heals;
      Alcotest.test_case "auto-heal after waves" `Quick
        test_auto_heal_after_waves;
      Alcotest.test_case "bit-identical across pool widths" `Quick
        test_recovery_bit_identical_across_jobs;
      Alcotest.test_case "restored recall returns to 1" `Quick
        test_restored_recall_full;
      Alcotest.test_case "fault seed decouples the plan" `Quick
        test_fault_seed_decouples;
      Alcotest.test_case "chaos checker: clean + sabotage" `Quick
        test_chaos_clean_and_sabotaged;
    ] )
