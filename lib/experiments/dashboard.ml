(* Offline observability dashboard.

   Aggregates whatever artifacts a run produced — Decision JSONL, a
   Prometheus metrics dump, a traffic sweep and its timeline — into
   tables, rendered as Markdown or a self-contained HTML page.
   Each [of_*] ingester is independent: the report shows the sections it
   was given inputs for and nothing else. *)

open Ri_util

type table = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let cell_f fmt v = Printf.sprintf fmt v

(* ------------------------------------------------------------------ *)
(* Decision JSONL -> per-scheme routing-quality table.                  *)

type walk_acc = {
  mutable scheme : string;
  mutable decisions : int;
  mutable scored : int;
  mutable regret : int;
  mutable rank : int;
  mutable agree : int;
  mutable stale : int;
  mutable follows : int;
  mutable backtracks : int;
  mutable timeouts : int;
}

let of_decisions text =
  let walks : (int * int, walk_acc) Hashtbl.t = Hashtbl.create 64 in
  let walk key =
    match Hashtbl.find_opt walks key with
    | Some w -> w
    | None ->
        let w =
          {
            scheme = "unknown";
            decisions = 0;
            scored = 0;
            regret = 0;
            rank = 0;
            agree = 0;
            stale = 0;
            follows = 0;
            backtracks = 0;
            timeouts = 0;
          }
        in
        Hashtbl.add walks key w;
        w
  in
  let int_field name j =
    match Option.bind (Json.member name j) Json.to_int with
    | Some i -> i
    | None -> 0
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if String.trim line <> "" then
           match Json.parse line with
           | Error _ -> ()
           | Ok j -> (
               let w = walk (int_field "unit" j, int_field "trial" j) in
               match Option.bind (Json.member "kind" j) Json.to_string with
               | Some "decide" ->
                   w.decisions <- w.decisions + 1;
                   (if w.scheme = "unknown" then
                      match
                        Option.bind (Json.member "scheme" j) Json.to_string
                      with
                      | Some s -> w.scheme <- s
                      | None -> ());
                   w.stale <- w.stale + int_field "stale_demoted" j;
                   (match Json.member "candidates" j with
                   | Some (Json.Arr (_ :: _)) ->
                       w.scored <- w.scored + 1;
                       w.regret <- w.regret + int_field "regret" j;
                       let r = int_field "oracle_rank" j in
                       w.rank <- w.rank + r;
                       if r = 0 then w.agree <- w.agree + 1
                   | _ -> ())
               | Some "follow" -> w.follows <- w.follows + 1
               | Some "backtrack" -> w.backtracks <- w.backtracks + 1
               | Some "timeout" -> w.timeouts <- w.timeouts + 1
               | _ -> ()));
  if Hashtbl.length walks = 0 then None
  else begin
    (* Fold walks into per-scheme aggregates. *)
    let schemes : (string, int ref * walk_acc) Hashtbl.t = Hashtbl.create 8 in
    Hashtbl.iter
      (fun _ w ->
        let n, acc =
          match Hashtbl.find_opt schemes w.scheme with
          | Some e -> e
          | None ->
              let e =
                ( ref 0,
                  {
                    scheme = w.scheme;
                    decisions = 0;
                    scored = 0;
                    regret = 0;
                    rank = 0;
                    agree = 0;
                    stale = 0;
                    follows = 0;
                    backtracks = 0;
                    timeouts = 0;
                  } )
              in
              Hashtbl.add schemes w.scheme e;
              e
        in
        incr n;
        acc.decisions <- acc.decisions + w.decisions;
        acc.scored <- acc.scored + w.scored;
        acc.regret <- acc.regret + w.regret;
        acc.rank <- acc.rank + w.rank;
        acc.agree <- acc.agree + w.agree;
        acc.stale <- acc.stale + w.stale;
        acc.follows <- acc.follows + w.follows;
        acc.backtracks <- acc.backtracks + w.backtracks;
        acc.timeouts <- acc.timeouts + w.timeouts)
      walks;
    let rows =
      Hashtbl.fold (fun s e acc -> (s, e) :: acc) schemes []
      |> List.sort compare
      |> List.map (fun (scheme, (walks, a)) ->
             let per_scored x =
               if a.scored = 0 then 0.
               else float_of_int x /. float_of_int a.scored
             in
             [
               scheme;
               string_of_int !walks;
               string_of_int a.decisions;
               string_of_int a.follows;
               string_of_int a.backtracks;
               (if a.follows = 0 then "0"
                else
                  cell_f "%.2f"
                    (float_of_int a.backtracks /. float_of_int a.follows));
               string_of_int a.timeouts;
               string_of_int a.stale;
               cell_f "%.2f" (per_scored a.rank);
               cell_f "%.0f%%" (100. *. per_scored a.agree);
               cell_f "%.2f" (per_scored a.regret);
             ])
    in
    Some
      {
        title = "Routing decisions vs oracle";
        header =
          [
            "scheme";
            "walks";
            "decisions";
            "follows";
            "backtracks";
            "bt/follow";
            "timeouts";
            "stale demoted";
            "mean oracle rank";
            "agreement";
            "mean regret";
          ];
        rows;
        notes =
          [
            "Oracle = ground-truth results reachable through each \
             candidate (deciding node removed, dead nodes impassable); \
             agreement = decisions whose first candidate was the oracle \
             best.";
          ];
      }
  end

(* ------------------------------------------------------------------ *)
(* Prometheus text dump -> flat value table.                            *)

let of_metrics text =
  let rows =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match String.rindex_opt line ' ' with
             | None -> None
             | Some i ->
                 Some
                   [
                     String.sub line 0 i;
                     String.sub line (i + 1) (String.length line - i - 1);
                   ])
  in
  if rows = [] then None
  else
    Some
      {
        title = "Metrics";
        header = [ "metric"; "value" ];
        rows;
        notes = [];
      }

(* ------------------------------------------------------------------ *)
(* risim traffic JSON -> knee chart, decomposition bars, hotspots.      *)

(* Unlike the other ingesters, the traffic reader is strict: its input
   is a machine-written artifact with a fixed schema, so a malformed
   row is a pipeline bug and deserves a precise error, not a silently
   thinner table. *)

let bar width frac =
  let n = int_of_float (frac *. float_of_int width +. 0.5) in
  String.make (max 0 (min width n)) '#'

(* A stacked bar of the latency split: one char column per share slot,
   'q' = queue-wait, 's' = service, 'l' = link. *)
let stacked_bar width ~queue ~service ~link =
  let total = queue +. service +. link in
  if total <= 0. then ""
  else begin
    let w = float_of_int width in
    let nq = int_of_float (queue /. total *. w +. 0.5) in
    let ns = int_of_float (service /. total *. w +. 0.5) in
    let nl = max 0 (width - nq - ns) in
    String.make (min width nq) 'q'
    ^ String.make (max 0 (min (width - nq) ns)) 's'
    ^ String.make nl 'l'
  end

let of_traffic json =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let points =
    match Json.member "points" json with
    | Some (Json.Arr ps) -> Ok ps
    | Some _ -> err "\"points\" is not an array"
    | None -> err "missing \"points\" array (not a risim traffic JSON?)"
  in
  let* points = points in
  let float_field i name j =
    match Option.bind (Json.member name j) Json.to_float with
    | Some f -> Ok f
    | None -> err "points[%d]: missing or non-numeric %S" i name
  in
  let bool_field i name j =
    match Json.member name j with
    | Some (Json.Bool b) -> Ok b
    | _ -> err "points[%d]: missing or non-boolean %S" i name
  in
  let rec parse_points i = function
    | [] -> Ok []
    | p :: tl ->
        let* qps = float_field i "qps" p in
        let* offered = float_field i "offered_per_s" p in
        let* completed = float_field i "completed" p in
        let* p50 = float_field i "p50_ms" p in
        let* p95 = float_field i "p95_ms" p in
        let* p99 = float_field i "p99_ms" p in
        let* queue = float_field i "queue_ms" p in
        let* service = float_field i "service_ms" p in
        let* link = float_field i "link_ms" p in
        let* share = float_field i "queue_share" p in
        let* saturated = bool_field i "saturated" p in
        let* hotspots =
          match Json.member "q_hotspots" p with
          | Some (Json.Arr hs) ->
              let rec go k = function
                | [] -> Ok []
                | h :: tl ->
                    let f name =
                      match Option.bind (Json.member name h) Json.to_float with
                      | Some v -> Ok v
                      | None ->
                          err "points[%d].q_hotspots[%d]: missing or \
                               non-numeric %S" i k name
                    in
                    let* node = f "node" in
                    let* wait = f "queue_wait_ns" in
                    let* busy = f "busy_ns" in
                    let* util = f "utilization" in
                    let* peak = f "peak_depth" in
                    let* critical = f "critical_hops" in
                    let* rest = go (k + 1) tl in
                    Ok ((node, wait, busy, util, peak, critical) :: rest)
              in
              go 0 hs
          | Some _ -> err "points[%d]: \"q_hotspots\" is not an array" i
          | None -> err "points[%d]: missing \"q_hotspots\" array" i
        in
        let* rest = parse_points (i + 1) tl in
        Ok
          ((qps, offered, completed, (p50, p95, p99), (queue, service, link),
            share, saturated, hotspots)
          :: rest)
  in
  let* rows = parse_points 0 points in
  let knee =
    match Json.member "knee_qps" json with
    | Some j -> Json.to_float j
    | None -> None
  in
  let max_p50 =
    List.fold_left
      (fun m (_, _, _, (p50, _, _), _, _, _, _) -> Float.max m p50)
      0. rows
  in
  let knee_table =
    {
      title = "Traffic sweep: latency vs offered QPS";
      header =
        [ "qps"; "offered/s"; "done"; "p50 ms"; "p95 ms"; "p99 ms"; "p50";
          "saturated" ];
      rows =
        List.map
          (fun (qps, offered, completed, (p50, p95, p99), _, _, sat, _) ->
            [
              cell_f "%g" qps;
              cell_f "%.1f" offered;
              cell_f "%.0f" completed;
              cell_f "%.3f" p50;
              cell_f "%.3f" p95;
              cell_f "%.3f" p99;
              (if max_p50 > 0. then bar 30 (p50 /. max_p50) else "");
              (if sat then "yes" else "no");
            ])
          rows;
      notes =
        [
          (match knee with
          | Some q -> Printf.sprintf "Saturation knee: ~%g QPS offered." q
          | None -> "Saturation knee: not reached within the sweep.");
        ];
    }
  in
  let decomp_table =
    {
      title = "Latency decomposition (per completed query)";
      header =
        [ "qps"; "queue ms"; "service ms"; "link ms"; "queue share";
          "q=queue s=service l=link" ];
      rows =
        List.map
          (fun (qps, _, _, _, (queue, service, link), share, _, _) ->
            [
              cell_f "%g" qps;
              cell_f "%.3f" queue;
              cell_f "%.3f" service;
              cell_f "%.3f" link;
              cell_f "%.0f%%" (100. *. share);
              stacked_bar 40 ~queue ~service ~link;
            ])
          rows;
      notes =
        [
          "Queue + service + link sums exactly to end-to-end latency \
           (integer nanoseconds); past the knee the queue share must \
           dominate.";
        ];
    }
  in
  let hotspot_rows =
    List.concat_map
      (fun (qps, _, _, _, _, _, _, hotspots) ->
        List.mapi
          (fun rank (node, wait, busy, util, peak, critical) ->
            [
              cell_f "%g" qps;
              string_of_int (rank + 1);
              cell_f "%.0f" node;
              cell_f "%.3f" (wait /. 1e6);
              cell_f "%.3f" (busy /. 1e6);
              cell_f "%.1f%%" (100. *. util);
              cell_f "%.0f" peak;
              cell_f "%.0f" critical;
            ])
          hotspots)
      rows
  in
  let tables =
    [ knee_table; decomp_table ]
    @
    if hotspot_rows = [] then []
    else
      [
        {
          title = "Hotspot nodes (top-K by accumulated queue wait)";
          header =
            [ "qps"; "rank"; "node"; "wait ms"; "busy ms"; "util"; "peak";
              "critical" ];
          rows = hotspot_rows;
          notes =
            [
              "Critical = completed queries whose largest single \
               queue-wait hop was at this node.";
            ];
        };
      ]
  in
  Ok tables

(* Timeline JSONL -> per-(unit,trial) bin table.  Strict for the same
   reason as [of_traffic]: each line is machine-written. *)
let of_timeline text =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let* rows =
    let rec go = function
      | [] -> Ok []
      | (ln, line) :: tl ->
          let* j =
            match Json.parse line with
            | Ok j -> Ok j
            | Error e -> err "line %d: %s" ln e
          in
          let f name =
            match Option.bind (Json.member name j) Json.to_int with
            | Some v -> Ok v
            | None -> err "line %d: missing or non-integer %S" ln name
          in
          let* unit = f "unit" in
          let* trial = f "trial" in
          let* bin = f "bin" in
          let* start_ns = f "start_ns" in
          let* arrivals = f "arrivals" in
          let* completions = f "completions" in
          let* depth_sum = f "depth_sum" in
          let* samples = f "samples" in
          let* peak = f "depth_peak" in
          let* rest = go tl in
          Ok
            ([
               string_of_int unit;
               string_of_int trial;
               string_of_int bin;
               cell_f "%.2f" (float_of_int start_ns /. 1e6);
               string_of_int arrivals;
               string_of_int completions;
               (if samples = 0 then "0.00"
                else
                  cell_f "%.2f"
                    (float_of_int depth_sum /. float_of_int samples));
               string_of_int peak;
             ]
            :: rest)
    in
    go lines
  in
  if rows = [] then err "no timeline records"
  else
    Ok
      {
        title = "Traffic timeline (logical-time bins)";
        header =
          [ "unit"; "trial"; "bin"; "start ms"; "arrivals"; "completions";
            "mean depth"; "peak depth" ];
        rows;
        notes =
          [
            "Depth is the engine-wide waiting backlog (in-service \
             messages excluded) sampled at each arrival/completion in \
             the bin; times are logical.";
          ];
      }

(* ------------------------------------------------------------------ *)
(* Rendering.                                                           *)

let render_markdown ~title tables =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "# %s\n" title;
  List.iter
    (fun t ->
      Printf.bprintf buf "\n## %s\n\n" t.title;
      Printf.bprintf buf "| %s |\n" (String.concat " | " t.header);
      Printf.bprintf buf "|%s\n"
        (String.concat "" (List.map (fun _ -> " --- |") t.header));
      List.iter
        (fun row -> Printf.bprintf buf "| %s |\n" (String.concat " | " row))
        t.rows;
      List.iter (fun n -> Printf.bprintf buf "\n%s\n" n) t.notes)
    tables;
  if tables = [] then
    Buffer.add_string buf "\nNo inputs given — nothing to report.\n";
  Buffer.contents buf

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_html ~title tables =
  let buf = Buffer.create 8192 in
  Printf.bprintf buf
    "<!DOCTYPE html>\n\
     <html><head><meta charset=\"utf-8\"><title>%s</title>\n\
     <style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse;margin:1em \
     0}th,td{border:1px solid #999;padding:0.3em 0.7em;text-align:left}th{background:#eee}\n\
     td.num{text-align:right}caption{font-weight:bold;text-align:left;padding:0.3em \
     0}.note{color:#555;font-size:0.9em}</style></head><body>\n\
     <h1>%s</h1>\n"
    (html_escape title) (html_escape title);
  List.iter
    (fun t ->
      Printf.bprintf buf "<h2>%s</h2>\n<table>\n<tr>" (html_escape t.title);
      List.iter
        (fun h -> Printf.bprintf buf "<th>%s</th>" (html_escape h))
        t.header;
      Buffer.add_string buf "</tr>\n";
      List.iter
        (fun row ->
          Buffer.add_string buf "<tr>";
          List.iter
            (fun c -> Printf.bprintf buf "<td>%s</td>" (html_escape c))
            row;
          Buffer.add_string buf "</tr>\n")
        t.rows;
      Buffer.add_string buf "</table>\n";
      List.iter
        (fun n ->
          Printf.bprintf buf "<p class=\"note\">%s</p>\n" (html_escape n))
        t.notes)
    tables;
  if tables = [] then
    Buffer.add_string buf "<p>No inputs given — nothing to report.</p>\n";
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf
