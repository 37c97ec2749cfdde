(* Provenance plane: decision-record semantics against the oracle,
   update-wave lineage stamps, the explain/summarize analyzers and the
   report dashboard ingesters. *)

open Ri_content
open Ri_core
open Ri_topology
open Ri_p2p
open Ri_obs
open Ri_sim

(* ------------------------------------------------------------------ *)
(* Update-wave lineage stamps.                                         *)

let path_net ?(n = 4) () =
  let graph = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let content =
    {
      Network.summary =
        (fun _ -> Summary.of_counts ~total:100 ~by_topic:[| 100 |]);
      count_matching = (fun _ _ -> 0);
    }
  in
  Network.create ~graph ~content ~scheme:Scheme.Cri_kind ~min_update:0.01 ()

let bump net origin docs =
  let counters = Message.create () in
  let base = Network.raw_local_summary net origin in
  let summary =
    Summary.make
      ~total:(base.Summary.total +. docs)
      ~by_topic:[| Summary.get base 0 +. docs |]
  in
  Update.local_change net ~origin ~summary ~counters

let test_wave_stamps_rows () =
  let net = path_net () in
  (* Build-time rows carry wave 0: nothing has been updated yet. *)
  Alcotest.(check int) "built rows unstamped" 0
    (Scheme.row_stamp (Network.ri net 3) ~peer:2);
  bump net 0 50.;
  (* The wave from node 0 rewrote node 3's row for its upstream peer 2. *)
  Alcotest.(check int) "first wave stamps" 1
    (Scheme.row_stamp (Network.ri net 3) ~peer:2);
  bump net 0 25.;
  Alcotest.(check int) "second wave restamps" 2
    (Scheme.row_stamp (Network.ri net 3) ~peer:2);
  (* Node 3 is a leaf: node 2's row for it describes 3's own documents,
     which no wave from 0 ever changed. *)
  Alcotest.(check int) "untouched row keeps its stamp" 0
    (Scheme.row_stamp (Network.ri net 2) ~peer:3)

(* ------------------------------------------------------------------ *)
(* Decision-record semantics.                                          *)

let small = Config.scaled Config.base ~num_nodes:300

let records_for cfg ~trials =
  Span.clear ();
  Span.start [ Span.Decisions ];
  Fun.protect ~finally:Span.stop (fun () ->
      Span.next_unit ();
      for trial = 0 to trials - 1 do
        ignore (Trial.run_query cfg ~trial)
      done);
  let r = Decision.records () in
  Span.clear ();
  r

let test_decide_invariants () =
  let cfg = Config.with_search small (Config.Ri Config.cri) in
  let walks = records_for cfg ~trials:3 in
  Alcotest.(check bool) "has walks" true (walks <> []);
  List.iter
    (fun ((_, _), records) ->
      Alcotest.(check bool) "walk non-empty" true (records <> []);
      (match List.rev records with
      | Decision.Stop s :: _ ->
          Alcotest.(check bool) "stop reason known" true
            (List.mem s.reason [ "satisfied"; "exhausted"; "budget" ])
      | _ -> Alcotest.fail "walk does not end in a stop record");
      List.iter
        (function
          | Decision.Decide d when d.candidates <> [] ->
              let n = List.length d.candidates in
              Alcotest.(check bool) "oracle_rank in range" true
                (d.oracle_rank >= 0 && d.oracle_rank < n);
              let peers = List.map (fun c -> c.Decision.peer) d.candidates in
              Alcotest.(check bool) "oracle_best is a candidate" true
                (List.mem d.oracle_best peers);
              let best_truth =
                List.fold_left
                  (fun acc c -> max acc c.Decision.truth)
                  0 d.candidates
              in
              let chosen =
                List.nth d.candidates d.oracle_rank
              in
              Alcotest.(check int) "ranked candidate holds the best truth"
                best_truth chosen.Decision.truth;
              Alcotest.(check int) "regret = best truth - first truth"
                (best_truth - (List.hd d.candidates).Decision.truth)
                d.regret;
              Alcotest.(check bool) "regret non-negative" true (d.regret >= 0)
          | _ -> ())
        records)
    walks

(* On a clean converged CRI tree the index is exact, so the first-ranked
   candidate always carries as many reachable results as the oracle's
   pick: zero count regret at every decision point. *)
let test_cri_tree_zero_regret () =
  let cfg = Config.with_search small (Config.Ri Config.cri) in
  let walks = records_for cfg ~trials:4 in
  List.iter
    (fun (_, records) ->
      List.iter
        (function
          | Decision.Decide d when d.candidates <> [] ->
              Alcotest.(check int) "exact CRI never regrets" 0 d.regret
          | _ -> ())
        records)
    walks

(* ------------------------------------------------------------------ *)
(* Explain.                                                            *)

let test_summarize_counts () =
  let records =
    [
      Decision.Decide
        {
          node = 0;
          from = -1;
          scheme = "CRI";
          candidates =
            [
              { Decision.peer = 1; goodness = 2.; truth = 1; stale = false; wave = 0 };
              { Decision.peer = 2; goodness = 1.; truth = 3; stale = true; wave = 1 };
            ];
          oracle_best = 2;
          oracle_rank = 1;
          regret = 2;
          stale_demoted = 1;
        };
      Decision.Follow { node = 0; target = 1; rank = 0 };
      Decision.Backtrack { node = 1; target = 0 };
      Decision.Timeout { node = 0; target = 2; attempt = 0 };
      Decision.Stop
        { reason = "exhausted"; found = 0; forwards = 2; returns = 1; visited = 2 };
    ]
  in
  let s = Ri_experiments.Explain.summarize records in
  Alcotest.(check int) "decisions" 1 s.Ri_experiments.Explain.decisions;
  Alcotest.(check int) "follows" 1 s.follows;
  Alcotest.(check int) "backtracks" 1 s.backtracks;
  Alcotest.(check int) "timeouts" 1 s.timeouts;
  Alcotest.(check int) "stale demoted" 1 s.stale_demoted;
  Alcotest.(check (float 1e-9)) "mean regret" 2. s.mean_regret;
  Alcotest.(check (float 1e-9)) "mean oracle rank" 1. s.mean_oracle_rank;
  Alcotest.(check (float 1e-9)) "agreement" 0. s.oracle_agreement;
  let text = Ri_experiments.Explain.render [ ((0, 0), records) ] in
  List.iter
    (fun affix ->
      Alcotest.(check bool) affix true
        (Astring.String.is_infix ~affix text))
    [
      "== unit 0 trial 0 ==";
      "decide @0 (origin) [CRI]";
      "oracle best 2 at rank 1, regret 2, 1 stale demoted";
      "STALE";
      "<- oracle best";
      "follow 0 -> 1 (choice #0)";
      "backtrack 1 -> 0";
      "timeout 0 -> 2 (attempt 0)";
      "stop: exhausted";
    ]

let test_explain_end_to_end () =
  let cfg = Config.with_search small (Config.Ri Config.cri) in
  let walks = records_for cfg ~trials:1 in
  let text = Ri_experiments.Explain.render walks in
  Alcotest.(check bool) "renders a walk" true
    (Astring.String.is_infix ~affix:"== unit" text);
  Alcotest.(check bool) "renders a summary" true
    (Astring.String.is_infix ~affix:"oracle agreement" text);
  Alcotest.(check bool) "empty render says so" true
    (Astring.String.is_infix ~affix:"no decision records"
       (Ri_experiments.Explain.render []))

(* ------------------------------------------------------------------ *)
(* Dashboard.                                                          *)

let test_dashboard_of_decisions () =
  let cfg = Config.with_search small (Config.Ri Config.cri) in
  Span.clear ();
  Span.start [ Span.Decisions ];
  Fun.protect ~finally:Span.stop (fun () ->
      Span.next_unit ();
      ignore (Trial.run_query cfg ~trial:0));
  let jsonl = Decision.render_jsonl () in
  Span.clear ();
  match Ri_experiments.Dashboard.of_decisions jsonl with
  | None -> Alcotest.fail "no table from live decision output"
  | Some t ->
      Alcotest.(check bool) "one scheme row" true (List.length t.rows = 1);
      Alcotest.(check string) "scheme column" "CRI"
        (List.hd (List.hd t.rows));
      Alcotest.(check bool) "garbage gives no table" true
        (Ri_experiments.Dashboard.of_decisions "not json\n" = None)

let test_dashboard_renderers () =
  let module D = Ri_experiments.Dashboard in
  let t =
    {
      D.title = "T";
      header = [ "a"; "b" ];
      rows = [ [ "1"; "x<y" ] ];
      notes = [ "a note" ];
    }
  in
  let md = D.render_markdown ~title:"R" [ t ] in
  List.iter
    (fun affix ->
      Alcotest.(check bool) affix true (Astring.String.is_infix ~affix md))
    [ "# R"; "## T"; "| a | b |"; "| 1 | x<y |"; "a note" ];
  let html = D.render_html ~title:"R" [ t ] in
  Alcotest.(check bool) "html escapes cells" true
    (Astring.String.is_infix ~affix:"x&lt;y" html);
  Alcotest.(check bool) "html is a full page" true
    (Astring.String.is_prefix ~affix:"<!DOCTYPE html>" html);
  Alcotest.(check bool) "empty report says so" true
    (Astring.String.is_infix ~affix:"No inputs given"
       (D.render_markdown ~title:"R" []))

let suite =
  ( "provenance",
    [
      Alcotest.test_case "waves stamp rewritten rows" `Quick
        test_wave_stamps_rows;
      Alcotest.test_case "decide record invariants" `Quick
        test_decide_invariants;
      Alcotest.test_case "exact CRI has zero count regret" `Quick
        test_cri_tree_zero_regret;
      Alcotest.test_case "summarize counts and render" `Quick
        test_summarize_counts;
      Alcotest.test_case "explain end to end" `Quick test_explain_end_to_end;
      Alcotest.test_case "dashboard ingests decisions" `Quick
        test_dashboard_of_decisions;
      Alcotest.test_case "dashboard renderers" `Quick test_dashboard_renderers;
    ] )
