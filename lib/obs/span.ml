(* The per-trial event log.

   Every simulated message is recorded once, as a span: a query span
   parents its hop, retry and fallback children, an update-wave span
   parents its per-round spans.  The buffering, (unit, trial) merge rule
   and byte-identity contract are Keyed_log's, shared with Decision.
   Two views render the one log: the span view draws the causal tree,
   the flat view (--trace) lists the non-root spans and the flat-only
   points of each trial in push order.

   Determinism: span ids are the per-trial creation index (seq), and
   start/finish timestamps are logical ticks drawn from a per-trial
   counter — both functions of (unit, trial, seq) only, never of wall
   clock or pool scheduling, so every export below is byte-identical at
   any --jobs width. *)

type arg = Int of int | Float of float | Str of string | Bool of bool

type record = {
  sid : int;  (* per-trial creation index *)
  parent : int;  (* parent sid, -1 for a root *)
  name : string;
  cat : string;
  t0 : int;  (* logical tick at enter *)
  mutable t1 : int;  (* logical tick at finish *)
  mutable args : (string * arg) list;
}

type flat_event = {
  f_name : string;
  f_cat : string;
  f_args : (string * arg) list;
}

(* A log entry is a span or a flat-only point; a point takes no sid and
   no tick, so the span view renders exactly as if it were absent. *)
type entry = Span of record | Point of flat_event

module Log = Keyed_log.Make (struct
  type t = entry
end)

(* The wrapper adds the per-trial id and tick counters; spans are
   pushed at enter (creation order = sid order) and mutated in place at
   finish — rendering happens only after the run, so it always sees the
   final state. *)
type sink = { log : Log.sink; mutable next_sid : int; mutable tick : int }

type span = record

let dummy =
  { sid = -1; parent = -1; name = ""; cat = ""; t0 = 0; t1 = 0; args = [] }

let null = { log = Log.null; next_sid = 0; tick = 0 }

let is_live s = Log.is_live s.log

let recording = Log.recording

let start = Log.start

let stop = Log.stop

let clear = Log.clear

let next_unit = Log.next_unit

let with_trial ~trial f =
  if not (Log.recording ()) then f null
  else Log.with_trial ~trial (fun log -> f { log; next_sid = 0; tick = 0 })

let enter s ?parent ?(cat = "sim") name args =
  if not (Log.is_live s.log) then dummy
  else begin
    let sid = s.next_sid in
    s.next_sid <- sid + 1;
    let t0 = s.tick in
    s.tick <- t0 + 1;
    let r =
      {
        sid;
        parent = (match parent with Some p -> p.sid | None -> -1);
        name;
        cat;
        t0;
        t1 = t0;
        args;
      }
    in
    Log.push s.log (Span r);
    r
  end

let finish s span ?(args = []) () =
  if Log.is_live s.log && span != dummy then begin
    span.t1 <- s.tick;
    s.tick <- s.tick + 1;
    if args <> [] then span.args <- span.args @ args
  end

(* [enter] then [finish] with no ticks in between: a point-like child
   (one hop, one retry) that still carries causal order. *)
let instant s ?parent ?cat name args =
  let sp = enter s ?parent ?cat name args in
  finish s sp ();
  sp

let point s ~cat name args =
  if Log.is_live s.log then
    Log.push s.log (Point { f_name = name; f_cat = cat; f_args = args })

(* A view projects each trial's entries through [f] and drops the
   trials it leaves empty. *)
let view f =
  List.filter_map
    (fun (key, es) ->
      match List.filter_map f es with [] -> None | xs -> Some (key, xs))
    (Log.events ())

let spans () = view (function Span r -> Some r | Point _ -> None)

(* The five span kinds the flat view names differently. *)
let flat_name = function
  | "hop" -> "forward"
  | "retry" -> "timeout"
  | "deliver" -> "update_hop"
  | "drop" -> "update_dropped"
  | "delay" -> "update_delayed"
  | name -> name

let flat_events () =
  view (function
    | Span r when r.parent >= 0 ->
        Some { f_name = flat_name r.name; f_cat = r.cat; f_args = r.args }
    | Span _ -> None
    | Point p -> Some p)

(* ------------------------------------------------------------------ *)
(* Export.                                                             *)

let escape = Ri_util.Json.escape

let arg_json = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.9g" f
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Bool b -> string_of_bool b

let args_json args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (arg_json v)) args)
  ^ "}"

(* Every export is a list of lines ([jsonl]) or one JSON array with an
   element per line ([json_array]); [fill] hands each line to [add]. *)
let jsonl fill =
  let buf = Buffer.create 4096 in
  fill (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n');
  Buffer.contents buf

let json_array ~header ~footer fill =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  let first = ref true in
  fill (fun elt ->
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      Buffer.add_string buf elt);
  Buffer.add_string buf footer;
  Buffer.contents buf

let chrome fill =
  json_array ~header:"{\"traceEvents\":[" ~footer:"\n],\"displayTimeUnit\":\"ms\"}\n"
    fill

let render_jsonl () =
  jsonl (fun add ->
      List.iter
        (fun ((u, trial), rs) ->
          List.iter
            (fun r ->
              add
                (Printf.sprintf
                   "{\"unit\":%d,\"trial\":%d,\"span\":%d,\"parent\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"t0\":%d,\"t1\":%d,\"args\":%s}"
                   u trial r.sid r.parent (escape r.cat) (escape r.name) r.t0
                   r.t1 (args_json r.args)))
            rs)
        (spans ()))

(* Chrome trace_event export: one complete ("X") event per span plus a
   flow start/finish pair ("s"/"f") from parent to child, so Perfetto
   draws the causal arrows.  pid = unit, tid = trial, ts = logical
   tick; flow ids are "unit:trial:sid" strings, unique by
   construction. *)
let render_chrome () =
  chrome (fun add ->
      List.iter
        (fun ((u, trial), rs) ->
          let by_sid = Hashtbl.create (2 * List.length rs) in
          List.iter (fun r -> Hashtbl.replace by_sid r.sid r) rs;
          List.iter
            (fun r ->
              add
                (Printf.sprintf
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":%s}"
                   (escape r.name) (escape r.cat) u trial r.t0
                   (max 1 (r.t1 - r.t0))
                   (args_json r.args));
              match Hashtbl.find_opt by_sid r.parent with
              | Some p ->
                  let id = Printf.sprintf "%d:%d:%d" u trial r.sid in
                  add
                    (Printf.sprintf
                       "{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"s\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"id\":\"%s\"}"
                       (escape p.name) u trial p.t0 id);
                  add
                    (Printf.sprintf
                       "{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"id\":\"%s\"}"
                       (escape r.name) u trial r.t0 id)
              | None -> ())
            rs)
        (spans ()))

(* OTLP-style JSON (the shape of an OTLP/HTTP trace export, logical
   ticks standing in for the nano timestamps).  Ids derive from
   (unit, trial, seq) alone: traceId is the 32-hex (unit, trial) pair,
   spanId the 16-hex (unit, trial, sid) triple. *)
let trace_id u t = Printf.sprintf "%016x%016x" u t

let span_id u t sid =
  Printf.sprintf "%04x%04x%08x" (u land 0xffff) (t land 0xffff)
    (sid land 0xffffffff)

let otlp_value = function
  | Int i -> Printf.sprintf "{\"intValue\":\"%d\"}" i
  | Float f -> Printf.sprintf "{\"doubleValue\":%.9g}" f
  | Str s -> Printf.sprintf "{\"stringValue\":\"%s\"}" (escape s)
  | Bool b -> Printf.sprintf "{\"boolValue\":%b}" b

let otlp_attributes args =
  "["
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "{\"key\":\"%s\",\"value\":%s}" (escape k)
             (otlp_value v))
         args)
  ^ "]"

let render_otlp () =
  json_array
    ~header:
      "{\"resourceSpans\":[{\"resource\":{\"attributes\":[{\"key\":\"service.name\",\"value\":{\"stringValue\":\"risim\"}}]},\"scopeSpans\":[{\"scope\":{\"name\":\"ri_obs.span\"},\"spans\":["
    ~footer:"\n]}]}]}\n"
    (fun add ->
      List.iter
        (fun ((u, trial), rs) ->
          List.iter
            (fun r ->
              add
                (Printf.sprintf
                   "{\"traceId\":\"%s\",\"spanId\":\"%s\",\"parentSpanId\":\"%s\",\"name\":\"%s\",\"kind\":1,\"startTimeUnixNano\":\"%d\",\"endTimeUnixNano\":\"%d\",\"attributes\":%s}"
                   (trace_id u trial) (span_id u trial r.sid)
                   (if r.parent >= 0 then span_id u trial r.parent else "")
                   (escape r.name) r.t0 r.t1
                   (otlp_attributes
                      (("cat", Str r.cat) :: ("trial", Int trial) :: r.args))))
            rs)
        (spans ()))

(* The flat view: one instant per entry, numbered by its position among
   the trial's flat entries. *)
let iter_flat f =
  List.iter
    (fun ((u, trial), fs) -> List.iteri (fun seq e -> f u trial seq e) fs)
    (flat_events ())

let render_flat_jsonl () =
  jsonl (fun add ->
      iter_flat (fun u trial seq e ->
          add
            (Printf.sprintf
               "{\"unit\":%d,\"trial\":%d,\"seq\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"args\":%s}"
               u trial seq (escape e.f_cat) (escape e.f_name)
               (args_json e.f_args))))

let render_flat_chrome () =
  chrome (fun add ->
      iter_flat (fun u trial seq e ->
          add
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"args\":%s}"
               (escape e.f_name) (escape e.f_cat) u trial seq
               (args_json e.f_args))))

let export path render =
  let oc = open_out path in
  output_string oc (render ());
  close_out oc

let export_jsonl path = export path render_jsonl

let export_chrome path = export path render_chrome

let export_otlp path = export path render_otlp

let export_flat_jsonl path = export path render_flat_jsonl

let export_flat_chrome path = export path render_flat_chrome
