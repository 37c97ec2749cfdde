(* The per-trial log: the one store every recorder writes to.

   Three kinds of entry share it.  Events are the message spans (plus
   the flat-only points), rendered as two views: the span view draws the
   causal tree, the flat view (--trace) lists the non-root spans and the
   points of each trial in push order.  Decisions ({!Decision}) are the
   per-hop routing provenance, and timeline bins ({!Observatory}) the
   traffic engine's logical-time ring.  [entry] is extensible, so each
   of those modules adds its own constructor and reads its own view.

   Each kind records only when [start] names it, so turning one on
   never changes another's bytes.  Determinism contract: entries are
   buffered in a per-trial sink on whichever domain runs the trial, and
   completed buffers are merged into the store keyed by (unit, trial) —
   [unit] is bumped once per data point, on the submitting domain, so it
   is scheduling independent.  Rendering sorts by that key and numbers
   entries by their in-trial position.  Span ids are the per-trial
   creation index and timestamps are logical ticks drawn from a
   per-trial counter, never wall clock (wall-clock profiling belongs in
   Metrics/Phase), so every export is byte-identical at any --jobs
   width. *)

type kind = Events | Decisions | Timeline

let bit = function Events -> 1 | Decisions -> 2 | Timeline -> 4

(* The kinds being recorded, as a bit set. *)
let recording_kinds = Atomic.make 0

let recording k = Atomic.get recording_kinds land bit k <> 0

let start kinds =
  List.iter
    (fun k -> Atomic.set recording_kinds (Atomic.get recording_kinds lor bit k))
    kinds

let stop () = Atomic.set recording_kinds 0

let unit_counter = Atomic.make 0

let next_unit () =
  if Atomic.get recording_kinds <> 0 then
    ignore (Atomic.fetch_and_add unit_counter 1)

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

type entry = ..

(* An event is a span or a flat-only point; a point takes no sid and no
   tick, so the span view renders exactly as if it were absent. *)
type entry += Span of record | Point of flat_event

let lock = Mutex.create ()

(* Values are newest-first so same-key registrations (e.g. a query
   trial followed by an update trial at the same index) prepend in
   O(own entries); rendering reverses once. *)
let store : (int * int, entry list ref) Hashtbl.t = Hashtbl.create 256

let clear () =
  Mutex.lock lock;
  Hashtbl.reset store;
  Atomic.set unit_counter 0;
  Mutex.unlock lock

(* A trial's buffer plus its span-id and tick counters.  Spans are
   pushed at enter (creation order = sid order) and mutated in place at
   finish — rendering happens only after the run, so it always sees the
   final state. *)
type sink = {
  kinds : int;  (* the kinds recording when the trial started *)
  key : int * int;  (* (unit, trial) *)
  mutable rev : entry list;  (* newest first *)
  mutable next_sid : int;
  mutable tick : int;
}

type span = record

let dummy =
  { sid = -1; parent = -1; name = ""; cat = ""; t0 = 0; t1 = 0; args = [] }

let null = { kinds = 0; key = (0, 0); rev = []; next_sid = 0; tick = 0 }

let live k s = s.kinds land bit k <> 0

let is_live s = live Events s

let with_trial ~trial f =
  let kinds = Atomic.get recording_kinds in
  if kinds = 0 then f null
  else begin
    let key = (Atomic.get unit_counter, trial) in
    let s = { kinds; key; rev = []; next_sid = 0; tick = 0 } in
    let finally () =
      if s.rev <> [] then begin
        Mutex.lock lock;
        (match Hashtbl.find_opt store s.key with
        | Some r -> r := s.rev @ !r
        | None -> Hashtbl.add store s.key (ref s.rev));
        Mutex.unlock lock
      end
    in
    Fun.protect ~finally (fun () -> f s)
  end

let push k s e = if live k s then s.rev <- e :: s.rev

let enter s ?parent ?(cat = "sim") name args =
  if not (is_live s) then dummy
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
    s.rev <- Span r :: s.rev;
    r
  end

let finish s span ?(args = []) () =
  if is_live s && span != dummy then begin
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
  if is_live s then
    s.rev <- Point { f_name = name; f_cat = cat; f_args = args } :: s.rev

(* A view projects each trial's entries through [f] and drops the
   trials it leaves empty. *)
let view f =
  Mutex.lock lock;
  let all = Hashtbl.fold (fun key r acc -> (key, List.rev !r) :: acc) store [] in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> compare a b) all
  |> List.filter_map (fun (key, es) ->
         match List.filter_map f es with [] -> None | xs -> Some (key, xs))

let spans () = view (function Span r -> Some r | _ -> None)

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
    | Point p -> Some p
    | _ -> None)

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
