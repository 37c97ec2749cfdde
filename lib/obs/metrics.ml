(* Registration is always live (it happens once, at module-init time, in
   the instrumented libraries); only *recording* is gated.  The gate is
   one atomic load and a branch, so instrumented hot paths cost nothing
   measurable when observability is off, as it is until someone calls
   [set_enabled true]. *)
let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

(* Counters and gauges are atomics so worker domains record without
   taking the registry lock; the lock only guards registration and
   enumeration.  A summary's sketch is a mutable structure, so each
   summary has its own mutex: observations from different domains
   serialize per series, and because everything a sketch accumulates
   commutes (see Sketch), the state, and hence the rendered bytes, do
   not depend on arrival order. *)
type sketch = { s_lock : Mutex.t; s_sketch : Sketch.t }

type data = C of int Atomic.t | G of float Atomic.t | S of sketch

type metric = {
  name : string;
  labels : (string * string) list;
  help : string;
  data : data;
}

type counter = metric

type gauge = metric

type summary = metric

let lock = Mutex.create ()

let registry : (string * (string * string) list, metric) Hashtbl.t =
  Hashtbl.create 64

let kind_name = function C _ -> "counter" | G _ -> "gauge" | S _ -> "summary"

let register ?(help = "") ?(labels = []) name data =
  let labels = List.sort compare labels in
  let key = (name, labels) in
  Mutex.lock lock;
  let m =
    match Hashtbl.find_opt registry key with
    | Some existing ->
        if kind_name existing.data <> kind_name data then begin
          Mutex.unlock lock;
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name existing.data))
        end;
        existing
    | None ->
        let m = { name; labels; help; data } in
        Hashtbl.add registry key m;
        m
  in
  Mutex.unlock lock;
  m

let counter ?help ?labels name = register ?help ?labels name (C (Atomic.make 0))

let gauge ?help ?labels name = register ?help ?labels name (G (Atomic.make 0.))

let summary ?help ?labels name =
  register ?help ?labels name
    (S { s_lock = Mutex.create (); s_sketch = Sketch.create () })

let add c n =
  if Atomic.get enabled_flag then
    match c.data with
    | C v -> ignore (Atomic.fetch_and_add v n)
    | G _ | S _ -> assert false

let incr c = add c 1

let set g x =
  if Atomic.get enabled_flag then
    match g.data with G v -> Atomic.set v x | C _ | S _ -> assert false

let observe s x =
  if Atomic.get enabled_flag then
    match s.data with
    | S sk ->
        Mutex.lock sk.s_lock;
        Sketch.add sk.s_sketch x;
        Mutex.unlock sk.s_lock
    | C _ | G _ -> assert false

let copy_sketch sk =
  Mutex.lock sk.s_lock;
  let c = Sketch.copy sk.s_sketch in
  Mutex.unlock sk.s_lock;
  c

let counter_value c = match c.data with C v -> Atomic.get v | _ -> assert false

let gauge_value g = match g.data with G v -> Atomic.get v | _ -> assert false

let snapshot s = match s.data with S sk -> copy_sketch sk | _ -> assert false

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ m ->
      match m.data with
      | C v -> Atomic.set v 0
      | G v -> Atomic.set v 0.
      | S sk ->
          Mutex.lock sk.s_lock;
          Sketch.clear sk.s_sketch;
          Mutex.unlock sk.s_lock)
    registry;
  Mutex.unlock lock

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition.                                         *)

let label_string labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
      ^ "}"

let float_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let quantile_labels =
  [ ("0.5", 0.5); ("0.9", 0.9); ("0.95", 0.95); ("0.99", 0.99); ("0.999", 0.999) ]

(* Every metric sorted by (name, labels): the one order both renderers
   use, so equal registries always print equal bytes. *)
let sorted () =
  Mutex.lock lock;
  let metrics = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock lock;
  List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels)) metrics

let render () =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let last_header = ref "" in
  List.iter
    (fun m ->
      if m.name <> !last_header then begin
        last_header := m.name;
        if m.help <> "" then line "# HELP %s %s\n" m.name m.help;
        line "# TYPE %s %s\n" m.name (kind_name m.data)
      end;
      let labels = label_string m.labels in
      match m.data with
      | C v -> line "%s%s %d\n" m.name labels (Atomic.get v)
      | G v -> line "%s%s %s\n" m.name labels (float_string (Atomic.get v))
      | S sk ->
          (* One {quantile=...} sample per tracked quantile, then _sum
             and _count. *)
          let sk = copy_sketch sk in
          List.iter
            (fun (ql, q) ->
              line "%s%s %s\n" m.name
                (label_string (List.sort compare (("quantile", ql) :: m.labels)))
                (float_string (Sketch.quantile sk q)))
            quantile_labels;
          line "%s_sum%s %s\n" m.name labels (float_string (Sketch.sum sk));
          line "%s_count%s %d\n" m.name labels (Sketch.count sk))
    (sorted ());
  Buffer.contents buf

let render_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '{';
  List.iter
    (fun m ->
      match m.data with
      | S sk ->
          if Buffer.length buf > 1 then Buffer.add_char buf ',';
          Printf.bprintf buf "\"%s\":%s"
            (Ri_util.Json.escape (m.name ^ label_string m.labels))
            (Sketch.snapshot_json (copy_sketch sk))
      | C _ | G _ -> ())
    (sorted ());
  Buffer.add_char buf '}';
  Buffer.contents buf
