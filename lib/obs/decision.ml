(* Per-hop routing-decision provenance.

   Where the span log's events record that messages moved, this
   recorder captures why: at every forwarding step the deciding node's
   full candidate vector (estimated goodness, ground-truth reachable
   results, staleness and update-wave lineage per consulted RI row), the
   oracle-best candidate and the regret of the estimate-driven choice,
   plus the follow/backtrack/timeout/stop skeleton of the walk.  Records
   are the [Decisions] entries of the trial's {!Span} log, so they share
   its (unit, trial) merge rule and exported bytes are identical at any
   pool width; recording is off by default and every capture site
   early-outs on {!is_live}. *)

type candidate = {
  peer : int;
  goodness : float;  (* the RI's estimate (0 for No-RI forwarding) *)
  truth : int;  (* oracle: results actually reachable through this peer *)
  stale : bool;  (* row demoted by the fault plane's staleness ledger *)
  wave : int;  (* logical update-wave id that last wrote the row; 0 = build *)
}

type record =
  | Decide of {
      node : int;
      from : int;  (* -1 at the origin *)
      scheme : string;  (* Scheme.kind_name, or "none" for No-RI *)
      candidates : candidate list;  (* in forwarding order *)
      oracle_best : int;  (* candidate with the most reachable results *)
      oracle_rank : int;  (* position of oracle_best in forwarding order *)
      regret : int;  (* oracle_best's truth minus the first candidate's *)
      stale_demoted : int;
    }
  | Follow of { node : int; target : int; rank : int }
  | Backtrack of { node : int; target : int }
  | Timeout of { node : int; target : int; attempt : int }
  | Stop of {
      reason : string;  (* "satisfied" | "exhausted" | "budget" *)
      found : int;
      forwards : int;
      returns : int;
      visited : int;
    }

type Span.entry += Decision of record

let is_live s = Span.live Span.Decisions s

let emit s r = Span.push Span.Decisions s (Decision r)

let records () = Span.view (function Decision r -> Some r | _ -> None)

(* ------------------------------------------------------------------ *)
(* Export.                                                             *)

let candidate_json c =
  Printf.sprintf
    "{\"peer\":%d,\"goodness\":%.9g,\"truth\":%d,\"stale\":%b,\"wave\":%d}"
    c.peer c.goodness c.truth c.stale c.wave

let record_json buf ~u ~trial ~seq r =
  let head kind = Printf.bprintf buf "{\"unit\":%d,\"trial\":%d,\"seq\":%d,\"kind\":\"%s\"" u trial seq kind in
  (match r with
  | Decide d ->
      head "decide";
      Printf.bprintf buf
        ",\"node\":%d,\"from\":%d,\"scheme\":\"%s\",\"oracle_best\":%d,\"oracle_rank\":%d,\"regret\":%d,\"stale_demoted\":%d,\"candidates\":[%s]"
        d.node d.from
        (Ri_util.Json.escape d.scheme)
        d.oracle_best d.oracle_rank d.regret d.stale_demoted
        (String.concat "," (List.map candidate_json d.candidates))
  | Follow f ->
      head "follow";
      Printf.bprintf buf ",\"node\":%d,\"target\":%d,\"rank\":%d" f.node
        f.target f.rank
  | Backtrack b ->
      head "backtrack";
      Printf.bprintf buf ",\"node\":%d,\"target\":%d" b.node b.target
  | Timeout t ->
      head "timeout";
      Printf.bprintf buf ",\"node\":%d,\"target\":%d,\"attempt\":%d" t.node
        t.target t.attempt
  | Stop s ->
      head "stop";
      Printf.bprintf buf
        ",\"reason\":\"%s\",\"found\":%d,\"forwards\":%d,\"returns\":%d,\"visited\":%d"
        (Ri_util.Json.escape s.reason)
        s.found s.forwards s.returns s.visited);
  Buffer.add_string buf "}\n"

let render_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ((u, trial), rs) ->
      List.iteri (fun seq r -> record_json buf ~u ~trial ~seq r) rs)
    (records ());
  Buffer.contents buf

let export_jsonl path = Span.export path render_jsonl
