(* Layered cost ledger: the benchmark of the routing-index simulator.

   Every rep of a workload runs in a fresh child process at pool width
   1.  The end-to-end metrics come from untraced reps; one traced rep
   per workload splits the unit's wall time across the simulator's
   layers (see Workloads).

     ledger.exe bench --workload W [--seed N] [--seconds S] [--trace 0|1]
         One workload for about S seconds: a traced rep, then untraced
         reps.  Prints one JSON result as the last line of stdout: the
         end-to-end metrics with --trace 0, the per-layer ones with 1.
     ledger.exe run [--seed N]
         Every workload, 5 untraced reps and one traced rep each.
         Prints every metric and writes ledger/results/ledger.json.
     ledger.exe record [--seed N]
         Two alternating sets of 5 reps.  When they agree within the
         bounds of BENCHMARK.json, writes ledger/baseline.json and
         appends a line to ledger/history.jsonl.
     ledger.exe compare PARENT.json CHANGE.json
         A verdict for every (workload, metric) pair of two ledger files.
     ledger.exe smoke [--golden FILE] [--bench FILE]
         Every workload at smoke scale: digests against the smoke golden,
         traced = untraced = width 2, the layer-sum identity, and
         BENCHMARK.json against the ledger's own metric lists.

   Paths are relative to the repository root, where the benchmark runs. *)

open Ri_util
module W = Workloads

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ledger: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Arguments: [--key value] pairs and positionals.                     *)

let parse_args ~allowed argv =
  let rec go flags pos = function
    | [] -> (flags, List.rev pos)
    | k :: rest when String.starts_with ~prefix:"--" k -> (
        if not (List.mem k allowed) then fail "unknown option %s" k;
        match rest with
        | v :: rest -> go ((k, v) :: flags) pos rest
        | [] -> fail "%s needs a value" k)
    | p :: rest -> go flags (p :: pos) rest
  in
  go [] [] argv

let get_string flags key default = Option.value ~default (List.assoc_opt key flags)

let get_int flags key ~min default =
  match List.assoc_opt key flags with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some i when i >= min -> i
      | _ -> fail "%s: expected an integer >= %d, got %S" key min v)

let get_float flags key =
  match List.assoc_opt key flags with
  | None -> fail "missing %s" key
  | Some v -> (
      match float_of_string_opt v with
      | Some f when Float.is_finite f -> f
      | _ -> fail "%s: expected a number, got %S" key v)

let get_bool flags key =
  match get_string flags key "0" with
  | "0" -> false
  | "1" -> true
  | v -> fail "%s: expected 0 or 1, got %S" key v

let get_workload flags =
  let name = get_string flags "--workload" "" in
  match W.find name with
  | Some w -> w
  | None ->
      fail "unknown workload %S (one of: %s)" name
        (String.concat ", " (List.map (fun w -> w.W.name) W.all))

let get_scale flags =
  let s = get_string flags "--scale" "full" in
  match W.scale_of_string s with
  | Some sc -> sc
  | None -> fail "--scale: expected full or smoke, got %S" s

(* ------------------------------------------------------------------ *)
(* Small JSON helpers.                                                 *)

let num f = Json.Num (if Float.is_finite f then f else 0.)

let float_member key j =
  match Option.bind (Json.member key j) Json.to_float with Some f -> f | None -> nan

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> fail "cannot read %s" msg

let read_json path =
  match Json.parse (read_file path) with
  | Ok j -> j
  | Error msg -> fail "%s: invalid JSON: %s" path msg

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path text =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* One object per line, so committed files diff line by line. *)
let render_lines fields =
  "{\n"
  ^ String.concat ",\n"
      (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %s" (Json.escape k) (Json.render v)) fields)
  ^ "\n}\n"

(* ------------------------------------------------------------------ *)
(* The child: one rep.                                                 *)

let rep_cmd argv =
  let flags, _ =
    parse_args argv
      ~allowed:
        [ "--workload"; "--seed"; "--scale"; "--trace"; "--jobs"; "--spawned-at"; "--trace-out" ]
  in
  let w = get_workload flags in
  let seed = get_int flags "--seed" ~min:0 42 in
  let scale = get_scale flags in
  let traced = get_bool flags "--trace" in
  let jobs = get_int flags "--jobs" ~min:1 1 in
  let spawned_at = get_float flags "--spawned-at" in
  let trace_out = List.assoc_opt "--trace-out" flags in
  let result =
    try
      Pool.set_global_jobs jobs;
      Ri_sim.Setup_cache.set_enabled true;
      Ri_obs.Metrics.set_enabled traced;
      let kind = w.W.make scale ~seed in
      W.prepare kind;
      let before = if traced then Some (W.snapshot ()) else None in
      let t0 = W.now () in
      let setup_s = t0 -. spawned_at in
      let r = { W.timed = traced; spans = [] } in
      let o = W.run_unit r kind in
      let wall = W.now () -. t0 in
      let rss = Option.value ~default:0. (Rss.peak_mb ()) in
      let layers =
        match before with
        | None -> []
        | Some before ->
            W.layers kind ~seed ~wall ~spans:r.W.spans ~before ~after:(W.snapshot ()) o
      in
      let sim_msgs =
        match o.W.point with
        | Some p -> Some (float_of_int (W.traffic_msgs p))
        | None when traced ->
            Some (List.assoc "query.messages" layers +. List.assoc "update.messages" layers)
        | None -> None
      in
      let layers_json = Json.Obj (List.map (fun (k, v) -> (k, num v)) layers) in
      (match trace_out with
      | Some path when traced ->
          let line fields =
            Json.render
              (Json.Obj
                 ((("workload", Json.Str w.W.name) :: ("seed", num (float_of_int seed)) :: fields)))
          in
          let span (s : W.span) =
            line
              [
                ("name", Json.Str s.s_name);
                ("layer", Json.Str s.s_layer);
                ("parent", Json.Str "unit");
                ("start_s", num (s.s_start -. t0));
                ("dur_s", num (s.s_stop -. s.s_start));
                ("self_s", num (s.s_stop -. s.s_start -. s.s_phases));
              ]
          in
          let root =
            line
              [
                ("name", Json.Str "unit");
                ("start_s", num 0.);
                ("dur_s", num wall);
                ("layers", layers_json);
              ]
          in
          write_file path (String.concat "\n" (root :: List.rev_map span r.W.spans) ^ "\n")
      | _ -> ());
      [
        ("ok", Json.Bool true);
        ("digest", Json.Str o.W.digest);
        ("setup_s", num setup_s);
        ("wall_s", num wall);
        ("peak_rss_mb", num rss);
        ("sim_msgs", match sim_msgs with Some m -> num m | None -> Json.Null);
        ("jobs", num (float_of_int (Pool.jobs (Pool.global ()))));
        ("layers", layers_json);
      ]
    with e -> [ ("ok", Json.Bool false); ("error", Json.Str (Printexc.to_string e)) ]
  in
  print_endline (Json.render (Json.Obj result));
  exit (if List.assoc "ok" result = Json.Bool true then 0 else 1)

(* ------------------------------------------------------------------ *)
(* The parent: spawning reps.                                          *)

type rep = {
  ok : bool;
  error : string;
  digest : string;
  setup_s : float;
  wall_s : float;
  rss_mb : float;
  sim_msgs : float option;
  jobs : int;
  layers : (string * float) list;
  elapsed : float;  (** spawn to exit, as seen by the parent *)
}

let failed_rep error elapsed =
  {
    ok = false;
    error;
    digest = "";
    setup_s = nan;
    wall_s = nan;
    rss_mb = nan;
    sim_msgs = None;
    jobs = 0;
    layers = [];
    elapsed;
  }

(* Children run with no RI_* variable in their environment: the program
   receives only the configuration the ledger generates. *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"RI_" kv))
       (Array.to_list (Unix.environment ())))

let child_timeout = 170.

let spawn args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t = W.now () in
  let argv =
    Array.of_list ((exe :: "rep" :: args) @ [ "--spawned-at"; Printf.sprintf "%.6f" t ])
  in
  let pid = Unix.create_process_env exe argv (child_env ()) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    let left = t +. child_timeout -. W.now () in
    if left <= 0. then begin
      Unix.kill pid Sys.sigkill;
      false
    end
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> drain ()
      | _ -> (
          match Unix.read rd chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  let finished = drain () in
  Unix.close rd;
  let rec wait () =
    try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  let elapsed = W.now () -. t in
  let last_line =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.rev
    |> function
    | l :: _ -> l
    | [] -> ""
  in
  match (finished, Json.parse last_line) with
  | false, _ -> failed_rep "timed out" elapsed
  | true, Error _ ->
      failed_rep
        (match status with
        | Unix.WEXITED c -> Printf.sprintf "no result (exit %d)" c
        | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "no result (signal %d)" s)
        elapsed
  | true, Ok j ->
      if Json.member "ok" j <> Some (Json.Bool true) then
        failed_rep
          (Option.value ~default:"failed"
             (Option.bind (Json.member "error" j) Json.to_string))
          elapsed
      else
        {
          ok = true;
          error = "";
          digest = Option.value ~default:"" (Option.bind (Json.member "digest" j) Json.to_string);
          setup_s = float_member "setup_s" j;
          wall_s = float_member "wall_s" j;
          rss_mb = float_member "peak_rss_mb" j;
          sim_msgs = Option.bind (Json.member "sim_msgs" j) Json.to_float;
          jobs = Option.value ~default:0 (Option.bind (Json.member "jobs" j) Json.to_int);
          layers =
            (match Option.bind (Json.member "layers" j) Json.to_obj with
            | Some kvs ->
                List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) kvs
            | None -> []);
          elapsed;
        }

(* ------------------------------------------------------------------ *)
(* Collecting and summarising a workload.                              *)

type ctx = {
  seed : int;
  scale : W.scale;
  results_dir : string option;  (** where traced reps write their spans *)
}

(* Reps run at pool width 1; only [smoke] asks for 2, to check that the
   digest does not depend on it. *)
let rep_args ?(jobs = 1) ctx (w : W.t) ~traced =
  [
    "--workload"; w.name; "--seed"; string_of_int ctx.seed; "--scale"; W.scale_name ctx.scale;
    "--trace"; (if traced then "1" else "0"); "--jobs"; string_of_int jobs;
  ]
  @
  match ctx.results_dir with
  | Some dir when traced -> [ "--trace-out"; Filename.concat dir (w.name ^ ".trace.jsonl") ]
  | _ -> []

(* Untraced reps: a fixed count, or as many as fit a time budget (at
   least [min_reps]). *)
type policy = Reps of int | Budget of float

let min_reps = 3

(* Untraced reps per set in [run] and [record]. *)
let k_reps = 5

type collected = { traced : rep; reps : rep list }

let progress fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

(* [sets] interleaves that many independent sets of reps, alternating
   which set goes first, so slow drift of the machine hits all alike. *)
let collect ctx (w : W.t) ~policy ~sets =
  let t_start = W.now () in
  let traced = Array.init sets (fun _ -> spawn (rep_args ctx w ~traced:true)) in
  let reps = Array.make sets [] in
  let last = ref traced.(0).elapsed in
  let more i =
    match policy with
    | Reps k -> i < k
    | Budget s -> i < min_reps || W.now () -. t_start +. !last <= s
  in
  let i = ref 0 in
  while more !i do
    let order = List.init sets Fun.id in
    List.iter
      (fun s ->
        let r = spawn (rep_args ctx w ~traced:false) in
        last := r.elapsed;
        reps.(s) <- r :: reps.(s))
      (if !i land 1 = 0 then order else List.rev order);
    incr i
  done;
  Array.init sets (fun s -> { traced = traced.(s); reps = List.rev reps.(s) })

type summary = {
  workload : string;
  attempted : int;
  failed : int;
  digest : string;
  golden : string;  (** "match", "mismatch" or "none" *)
  e2e : (string * float array) list;
  per_layer : (string * float) list;
  identity_error : float;  (** |sum of layers - traced wall| / traced wall *)
  negative : string list;  (** layers below -1% of the traced wall *)
  errors : string list;
}

let identity_tolerance = 0.01

let self_layers layers =
  List.filter
    (fun (k, _) ->
      String.ends_with ~suffix:".self_s" k || k = "update.drift_s" || k = "unattributed.s")
    layers

let summarize ~golden (w : W.t) c =
  let all = c.traced :: c.reps in
  let reference =
    match golden with
    | Some d -> d
    | None -> (
        match List.find_opt (fun r -> r.ok) all with Some r -> r.digest | None -> "")
  in
  (* Figure workloads count their simulated messages only on the traced
     pass; the count is a pure function of the inputs. *)
  let msgs r = match r.sim_msgs with Some m -> Some m | None -> c.traced.sim_msgs in
  let errors = ref [] in
  let unit_ok r =
    let fault =
      if not r.ok then Some r.error
      else if r.digest <> reference then
        Some (Printf.sprintf "digest %s, expected %s" r.digest reference)
      else if c.traced.ok && msgs r <> c.traced.sim_msgs then
        Some "simulated message count differs from the traced rep"
      else None
    in
    Option.iter (fun e -> errors := e :: !errors) fault;
    fault = None
  in
  let good = List.filter unit_ok all in
  let attempted = List.length all and failed = List.length all - List.length good in
  let untraced = Array.of_list (List.filter (fun r -> r.ok && r.digest = reference) c.reps) in
  let field f = Array.map f untraced in
  let wall = field (fun r -> r.wall_s) in
  let e2e =
    [
      ("wall_s", wall);
      ("setup_s", field (fun r -> r.setup_s));
      ( "sim_msgs_per_s",
        field (fun r -> Option.value ~default:0. (msgs r) /. r.wall_s) );
      ("peak_rss_mb", field (fun r -> r.rss_mb));
      ("ok_share", [| float_of_int (attempted - failed) /. float_of_int attempted |]);
    ]
  in
  let per_layer =
    if c.traced.ok then
      c.traced.layers
      @ [ ("trace.overhead_share", (c.traced.wall_s /. Verdict.median wall) -. 1.) ]
    else []
  in
  let traced_wall = c.traced.wall_s in
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. (self_layers per_layer) in
  let negative =
    List.filter_map
      (fun (k, v) -> if v < -.identity_tolerance *. traced_wall then Some k else None)
      (self_layers per_layer)
  in
  {
    workload = w.name;
    attempted;
    failed;
    digest = (match List.find_opt (fun r -> r.ok) all with Some r -> r.digest | None -> "");
    golden =
      (match golden with
      | None -> "none"
      | Some d -> if List.exists (fun r -> r.ok && r.digest = d) all then "match" else "mismatch");
    e2e;
    per_layer;
    identity_error =
      (if c.traced.ok then Float.abs (sum -. traced_wall) /. traced_wall else nan);
    negative;
    errors = List.rev !errors;
  }

(* Correct: every unit passed, the traced split exists, sums to its
   wall time and has no negative layer. *)
let correct s =
  s.failed = 0 && s.per_layer <> []
  && s.identity_error <= identity_tolerance
  && s.negative = []
  && Array.length (List.assoc "wall_s" s.e2e) > 0

let golden_table path =
  if not (Sys.file_exists path) then fail "golden digest file %s not found" path;
  read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ scale; workload; digest ] -> Some ((scale, workload), digest)
         | _ -> None)

let golden_seed = 42

let golden_for table ctx (w : W.t) =
  if ctx.seed <> golden_seed then None
  else List.assoc_opt (W.scale_name ctx.scale, w.name) table

let summary_json s =
  let e2e =
    List.map
      (fun (name, samples) ->
        let q1, q3 = Verdict.quartiles samples in
        ( name,
          Json.Obj
            [
              ("unit", Json.Str (Schema.unit_of name));
              ("median", num (Verdict.median samples));
              ("q1", num q1);
              ("q3", num q3);
              ("n", num (float_of_int (Array.length samples)));
              ("samples", Json.Arr (Array.to_list (Array.map num samples)));
            ] ))
      s.e2e
  in
  Json.Obj
    [
      ("digest", Json.Str s.digest);
      ("golden", Json.Str s.golden);
      ("attempted", num (float_of_int s.attempted));
      ("failed", num (float_of_int s.failed));
      ("end_to_end", Json.Obj e2e);
      ( "per_layer",
        Json.Obj
          (List.map
             (fun (k, v) ->
               (k, Json.Obj [ ("unit", Json.Str (Schema.unit_of k)); ("value", num v) ]))
             s.per_layer) );
      ("identity_error", num s.identity_error);
      ("errors", Json.Arr (List.map (fun e -> Json.Str e) s.errors));
    ]

let print_summary s =
  Printf.printf "== %s  digest %s (golden: %s)  units %d, failed %d, failed_share %g ==\n"
    s.workload s.digest s.golden s.attempted s.failed
    (float_of_int s.failed /. float_of_int s.attempted);
  List.iter
    (fun (name, samples) ->
      let q1, q3 = Verdict.quartiles samples in
      Printf.printf "  %-34s %12.6g %-6s q1 %.6g  q3 %.6g  n=%d\n" name (Verdict.median samples)
        (Schema.unit_of name) q1 q3 (Array.length samples))
    s.e2e;
  Printf.printf "  traced split (layer sum vs wall: %.3f%% off)\n" (100. *. s.identity_error);
  List.iter
    (fun (k, v) -> Printf.printf "  %-34s %12.6g %s\n" k v (Schema.unit_of k))
    s.per_layer;
  List.iter (fun e -> Printf.printf "  error: %s\n" e) s.errors;
  print_newline ()

let meta ctx =
  let commit =
    try
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, l when l <> "" -> l
      | _ -> "unknown"
    with Unix.Unix_error _ -> "unknown"
  in
  let tm = Unix.gmtime (Unix.time ()) in
  [
    ("commit", Json.Str commit);
    ( "timestamp_utc",
      Json.Str
        (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.tm_year + 1900) (tm.tm_mon + 1)
           tm.tm_mday tm.tm_hour tm.tm_min tm.tm_sec) );
    ("nproc", num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Json.Str Sys.ocaml_version);
    ("hostname", Json.Str (Unix.gethostname ()));
    ("jobs", num 1.);
    ("seed", num (float_of_int ctx.seed));
    ("scale", Json.Str (W.scale_name ctx.scale));
  ]

let common_flags = [ "--seed"; "--golden"; "--results" ]

let ctx_of flags ~scale =
  {
    seed = get_int flags "--seed" ~min:0 golden_seed;
    scale;
    results_dir = Some (get_string flags "--results" "ledger/results");
  }

(* ------------------------------------------------------------------ *)
(* Commands.                                                           *)

let bench_cmd argv =
  let flags, _ =
    parse_args argv ~allowed:([ "--workload"; "--seconds"; "--trace" ] @ common_flags)
  in
  let w = get_workload flags in
  let ctx = ctx_of flags ~scale:W.Full in
  let seconds = get_int flags "--seconds" ~min:1 10 in
  let trace = get_bool flags "--trace" in
  let golden = golden_for (golden_table (get_string flags "--golden" "ledger/golden/seed42.txt")) ctx w in
  let c = (collect ctx w ~policy:(Budget (float_of_int seconds)) ~sets:1).(0) in
  let s = summarize ~golden w c in
  progress "%s seed %d: digest %s (golden: %s), %d units, %d failed, split off by %.3f%%"
    w.name ctx.seed s.digest s.golden s.attempted s.failed (100. *. s.identity_error);
  List.iter (fun e -> progress "  error: %s" e) s.errors;
  let metrics =
    if trace then List.map (fun (k, _, _, _) -> (k, Option.value ~default:0. (List.assoc_opt k s.per_layer))) Schema.per_layer
    else List.map (fun (k, samples) -> (k, Verdict.median samples)) s.e2e
  in
  print_endline
    (Json.render
       (Json.Obj
          [
            ("correct", Json.Bool (correct s));
            ("attempted", num (float_of_int s.attempted));
            ("failed", num (float_of_int s.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (k, v) ->
                     (k, Json.Obj [ ("value", num v); ("unit", Json.Str (Schema.unit_of k)) ]))
                   metrics) );
          ]))

let run_cmd argv =
  let flags, _ = parse_args argv ~allowed:common_flags in
  let ctx = ctx_of flags ~scale:W.Full in
  let table = golden_table (get_string flags "--golden" "ledger/golden/seed42.txt") in
  let summaries =
    List.map
      (fun (w : W.t) ->
        progress "running %s: %d untraced reps + 1 traced" w.name k_reps;
        let s = summarize ~golden:(golden_for table ctx w) w (collect ctx w ~policy:(Reps k_reps) ~sets:1).(0) in
        print_summary s;
        s)
      W.all
  in
  let path = Filename.concat (Option.get ctx.results_dir) "ledger.json" in
  write_file path
    (render_lines
       [
         ("meta", Json.Obj (meta ctx));
         ("workloads", Json.Obj (List.map (fun s -> (s.workload, summary_json s)) summaries));
       ]);
  Printf.printf "ledger written to %s\n" path;
  if not (List.for_all correct summaries) then exit 1

(* Bounds of the end-to-end metrics, from BENCHMARK.json. *)
let bounds path =
  let j = read_json path in
  match Option.bind (Json.member "end_to_end" j) Json.to_list with
  | None -> fail "%s: no end_to_end list" path
  | Some l ->
      List.map
        (fun m ->
          match
            ( Option.bind (Json.member "name" m) Json.to_string,
              Option.bind (Json.member "bound" m) Json.to_float )
          with
          | Some n, Some b -> (n, b)
          | _ -> fail "%s: malformed end_to_end entry" path)
        l

(* Absolute floor under which a set-up difference is not a verdict:
   set-up of the figure workloads is process start alone, a few ms. *)
let floor_of = function "setup_s" -> 0.05 | _ -> 0.

let samples_of j =
  match Option.bind (Json.member "samples" j) Json.to_list with
  | Some l -> Array.of_list (List.filter_map Json.to_float l)
  | None -> [||]

(* Verdicts of [change] against [parent] (ledger.json-shaped values),
   one line per pair; returns the number of Worse verdicts. *)
let compare_ledgers ~bounds parent change =
  let workloads j = Option.value ~default:[] (Option.bind (Json.member "workloads" j) Json.to_obj) in
  let change_ws = workloads change in
  let worse = ref 0 in
  let line w metric v p c =
    if v = Verdict.Worse then incr worse;
    Printf.printf "%-18s %-34s %-10s parent %-14.10g change %-14.10g %+.2f%%\n" w metric
      (Verdict.name v) p c
      (if p = 0. then 0. else 100. *. (c -. p) /. Float.abs p)
  in
  List.iter
    (fun (w, pj) ->
      match List.assoc_opt w change_ws with
      | None -> Printf.printf "%-18s missing from the change\n" w
      | Some cj ->
          let section key j = Option.value ~default:[] (Option.bind (Json.member key j) Json.to_obj) in
          let pe = section "end_to_end" pj and ce = section "end_to_end" cj in
          List.iter
            (fun (metric, bound) ->
              match (List.assoc_opt metric pe, List.assoc_opt metric ce) with
              | Some pm, Some cm ->
                  let parent = samples_of pm and change = samples_of cm in
                  if parent <> [||] && change <> [||] then
                    line w metric
                      (Verdict.judge ~better:(Schema.better_of metric) ~bound
                         ~floor:(floor_of metric) ~parent ~change ())
                      (Verdict.median parent) (Verdict.median change)
              | _ -> ())
            bounds;
          let pl = section "per_layer" pj and cl = section "per_layer" cj in
          List.iter
            (fun (metric, pv) ->
              if Schema.is_exact metric then
                match List.assoc_opt metric cl with
                | Some cv ->
                    let p = float_member "value" pv and c = float_member "value" cv in
                    line w metric
                      (Verdict.exact ~better:(Schema.better_of metric) ~parent:p ~change:c)
                      p c
                | None -> ())
            pl;
          let digest j = Option.bind (Json.member "digest" j) Json.to_string in
          if digest pj <> digest cj then Printf.printf "%-18s output digest differs\n" w)
    (workloads parent);
  !worse

let compare_cmd argv =
  let flags, pos = parse_args argv ~allowed:[ "--bench" ] in
  match pos with
  | [ parent; change ] ->
      let bounds = bounds (get_string flags "--bench" "BENCHMARK.json") in
      let worse = compare_ledgers ~bounds (read_json parent) (read_json change) in
      Printf.printf "%d worse\n" worse;
      if worse > 0 then exit 1
  | _ -> fail "usage: ledger.exe compare PARENT.json CHANGE.json [--bench BENCHMARK.json]"

(* Two sets of the same code agree when every end-to-end median is
   within its bound of the other set's and every exact count repeats. *)
let disagreements ~bounds a b =
  let e2e =
    List.filter_map
      (fun (metric, bound) ->
        match (List.assoc_opt metric a.e2e, List.assoc_opt metric b.e2e) with
        | Some sa, Some sb ->
            let ma = Verdict.median sa and mb = Verdict.median sb in
            Printf.printf "%-18s %-16s A %-12.6g B %-12.6g %+.2f%% (bound %g%%)\n" a.workload
              metric ma mb
              (100. *. (mb -. ma) /. Float.abs ma)
              (100. *. bound);
            let d = Float.abs (mb -. ma) in
            if d > bound *. Float.abs ma && d > floor_of metric then
              Some (Printf.sprintf "%s %s: medians differ beyond the bound" a.workload metric)
            else None
        | _ -> None)
      bounds
  in
  let counts =
    List.filter_map
      (fun (k, va) ->
        if Schema.is_exact k && List.assoc_opt k b.per_layer <> Some va then
          Some (Printf.sprintf "%s %s: exact count differs" a.workload k)
        else None)
      a.per_layer
  in
  e2e @ counts

let record_cmd argv =
  let flags, _ = parse_args argv ~allowed:([ "--bench" ] @ common_flags) in
  let ctx = ctx_of flags ~scale:W.Full in
  let bounds = bounds (get_string flags "--bench" "BENCHMARK.json") in
  let table = golden_table (get_string flags "--golden" "ledger/golden/seed42.txt") in
  let per_set =
    List.map
      (fun (w : W.t) ->
        progress "recording %s: 2 sets x (%d untraced + 1 traced), alternating" w.name k_reps;
        let cs = collect ctx w ~policy:(Reps k_reps) ~sets:2 in
        Array.iter
          (fun c ->
            List.iter
              (fun r ->
                if r.ok && r.jobs <> 1 then
                  fail "record refuses: a rep ran at pool width %d" r.jobs)
              (c.traced :: c.reps))
          cs;
        let golden = golden_for table ctx w in
        let a = summarize ~golden w cs.(0) and b = summarize ~golden w cs.(1) in
        let both =
          summarize ~golden w { traced = cs.(0).traced; reps = cs.(0).reps @ cs.(1).reps }
        in
        print_summary both;
        (a, b, both))
      W.all
  in
  print_endline "set A vs set B:";
  let problems =
    List.concat_map
      (fun (a, b, both) ->
        disagreements ~bounds a b
        @
        if correct a && correct b && correct both then []
        else [ a.workload ^ ": failed units or a broken split" ])
      per_set
  in
  if problems <> [] then begin
    List.iter print_endline problems;
    print_endline "no baseline recorded; lengthen the run rather than loosen a bound";
    exit 1
  end;
  let set_json f =
    Json.Obj (List.map (fun t -> let s = f t in (s.workload, summary_json s)) per_set)
  in
  let set_a = set_json (fun (a, _, _) -> a) and set_b = set_json (fun (_, b, _) -> b) in
  let meta = meta ctx in
  write_file "ledger/baseline.json"
    (render_lines
       [
         ("meta", Json.Obj meta);
         ( "workloads",
           Json.Obj (List.map (fun (_, _, s) -> (s.workload, summary_json s)) per_set) );
         ("sets", Json.Arr [ set_a; set_b ]);
       ]);
  let history =
    Json.Obj
      (meta
      @ [
          ( "medians",
            Json.Obj
              (List.map
                 (fun (_, _, s) ->
                   ( s.workload,
                     Json.Obj (List.map (fun (k, v) -> (k, num (Verdict.median v))) s.e2e) ))
                 per_set) );
        ])
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 "ledger/history.jsonl"
    (fun oc -> output_string oc (Json.render history ^ "\n"));
  print_endline "baseline written to ledger/baseline.json, history line appended"

(* BENCHMARK.json must name exactly the ledger's workloads and metrics,
   with the same units and directions. *)
let check_benchmark path =
  let j = read_json path in
  let entries key =
    match Option.bind (Json.member key j) Json.to_list with
    | Some l -> l
    | None -> fail "%s: no %s list" path key
  in
  let str k e = Option.value ~default:"" (Option.bind (Json.member k e) Json.to_string) in
  let problems = ref [] in
  let expect what a b = if a <> b then problems := what :: !problems in
  expect "workload names and whys"
    (List.map (fun e -> (str "name" e, str "why" e)) (entries "workloads"))
    (List.map (fun (w : W.t) -> (w.name, w.why)) W.all);
  expect "end_to_end metrics"
    (List.map (fun e -> (str "name" e, str "unit" e, str "better" e)) (entries "end_to_end"))
    (List.map (fun (n, u, b) -> (n, u, Schema.better_name b)) Schema.end_to_end);
  expect "per_layer metrics"
    (List.map (fun e -> (str "name" e, str "unit" e, str "better" e)) (entries "per_layer"))
    (List.map (fun (n, u, b, _) -> (n, u, Schema.better_name b)) Schema.per_layer);
  List.rev !problems

let smoke_cmd argv =
  let flags, _ = parse_args argv ~allowed:[ "--golden"; "--bench" ] in
  let table = golden_table (get_string flags "--golden" "ledger/golden/seed42.txt") in
  let ctx = { seed = golden_seed; scale = W.Smoke; results_dir = None } in
  let problems = ref (check_benchmark (get_string flags "--bench" "BENCHMARK.json")) in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let layer_names =
    List.filter (fun n -> n <> "trace.overhead_share") (List.map (fun (n, _, _, _) -> n) Schema.per_layer)
  in
  List.iter
    (fun (w : W.t) ->
      let golden = golden_for table ctx w in
      if golden = None then problem "%s: no smoke golden" w.name;
      let c = (collect ctx w ~policy:(Reps 1) ~sets:1).(0) in
      let wide = spawn (rep_args ~jobs:2 ctx w ~traced:false) in
      let s = summarize ~golden w { c with reps = wide :: c.reps } in
      Printf.printf "%-18s digest %s  golden %s  split off by %.4f%%  unattributed %.1f%%\n"
        w.name s.digest s.golden (100. *. s.identity_error)
        (100. *. Option.value ~default:nan (List.assoc_opt "unattributed.share" s.per_layer));
      List.iter (fun e -> problem "%s: %s" w.name e) s.errors;
      if wide.ok && wide.jobs <> 2 then problem "%s: width-2 rep ran at %d" w.name wide.jobs;
      if s.identity_error > identity_tolerance then
        problem "%s: layers sum %.3f%% away from the traced wall" w.name (100. *. s.identity_error);
      List.iter (fun l -> problem "%s: negative layer %s" w.name l) s.negative;
      if c.traced.ok && List.map fst c.traced.layers <> layer_names then
        problem "%s: traced layers differ from the metric list" w.name)
    W.all;
  List.iter (fun p -> prerr_endline ("FAIL " ^ p)) (List.rev !problems);
  if !problems <> [] then exit 1;
  print_endline "smoke ok"

let () =
  match Array.to_list Sys.argv with
  | _ :: "rep" :: rest -> rep_cmd rest
  | _ :: "bench" :: rest -> bench_cmd rest
  | _ :: "run" :: rest -> run_cmd rest
  | _ :: "record" :: rest -> record_cmd rest
  | _ :: "compare" :: rest -> compare_cmd rest
  | _ :: "smoke" :: rest -> smoke_cmd rest
  | _ -> fail "usage: ledger.exe (bench|run|record|compare|smoke) [options]"
