(* Work pins: the ledger's deterministic counts, checked on every `dune
   runtest`.

     work_pins.exe LEDGER GOLDEN

   runs [LEDGER rep --workload W --scale smoke --trace 1 --spawned-at 0]
   for each of the ledger's four workloads (seed 42, pool width 1) and
   prints the pins it measured, in GOLDEN's format, on stdout.  The
   counts the ledger marks (=) must equal their pin; the per-layer minor
   words must stay within 1% of theirs.  A value that holds prints as
   its pin, one that moved prints as measured and is named on stderr, so
   the dune rule's diff against GOLDEN fails on exactly the moved lines
   and `dune promote` records them.

   Each rep runs with no RI_* variable in its environment, as the
   ledger's own reps do: knobs such as RI_CACHE_WORDS or RI_RETRY_CAP
   change the work, and the caller's shell must not move the pins. *)

open Ri_util

let workloads = [ "paper-figs"; "faults"; "traffic-steady"; "traffic-overload" ]

type tolerance = Exact | Within_1pct

let keys =
  List.map
    (fun k -> (k, Exact))
    [
      "ri_build.builds";
      "setup_cache.network_hit_ratio";
      "setup_cache.graph_hit_ratio";
      "query.messages";
      "update.messages";
      "update.waves";
      "update.useful_ratio";
      "update.wire_mb";
      "fault.timeouts";
      "fault.retries";
      "fault.stale_fallbacks";
      "fault.update_drops";
      "engine.deliveries";
      "engine.queue_peak";
      "engine.queue_mean";
      "runner.trials";
      "runner.units";
    ]
  @ List.map
      (fun k -> (k, Within_1pct))
      [ "topology.minor_mwords"; "ri_build.minor_mwords"; "query.minor_mwords"; "gc.minor_mwords" ]

let mark = function Exact -> "=" | Within_1pct -> "~"

let holds tol ~pinned ~measured =
  match tol with
  | Exact -> measured = pinned
  | Within_1pct -> Float.abs (measured -. pinned) <= 0.01 *. Float.abs pinned

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("work_pins: " ^ s);
      exit 1)
    fmt

let read_lines path =
  try In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n'
  with Sys_error msg -> fail "%s" msg

(* GOLDEN: "# ..." comments, then one "WORKLOAD KEY MARK VALUE" line per
   pin. *)
let read_golden path =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ w; key; _; v ] when not (String.starts_with ~prefix:"#" w) -> (
          match float_of_string_opt v with
          | Some f -> Some ((w, key), (v, f))
          | None -> fail "%s: bad value in %S" path line)
      | _ -> None)
    (read_lines path)

let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"RI_" kv))
  |> Array.of_list

(* The layers object of one traced smoke rep. *)
let measure ledger workload =
  let argv =
    [| ledger; "rep"; "--workload"; workload; "--scale"; "smoke"; "--trace"; "1"; "--spawned-at"; "0" |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env ledger argv (child_env ()) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  let last =
    match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match Json.parse last with
  | Ok j when Json.member "ok" j = Some (Json.Bool true) -> (
      match Option.bind (Json.member "layers" j) Json.to_obj with
      | Some kvs -> kvs
      | None -> fail "%s: the rep printed no layers" workload)
  | Ok j ->
      fail "%s: the rep failed: %s" workload
        (Option.value ~default:"no error given" (Option.bind (Json.member "error" j) Json.to_string))
  | Error _ -> fail "%s: the rep printed no result" workload

let () =
  let ledger, golden =
    match Sys.argv with
    | [| _; ledger; golden |] -> (ledger, golden)
    | _ -> fail "usage: work_pins.exe LEDGER GOLDEN"
  in
  let pins = read_golden golden in
  print_string
    "# Work pins: the ledger's deterministic counts at smoke scale, seed 42,\n\
     # pool width 1, checked by test/work_pins.ml on every `dune runtest`.\n\
     # \"=\" must match exactly; \"~\" (minor words) must stay within 1%.\n\
     # After a change that moves work on purpose: dune runtest; dune promote.\n";
  List.iter
    (fun w ->
      let layers = measure ledger w in
      List.iter
        (fun (key, tol) ->
          let measured =
            match Option.bind (List.assoc_opt key layers) Json.to_float with
            | Some f -> f
            | None -> fail "%s: the rep reported no %s" w key
          in
          let text =
            match List.assoc_opt (w, key) pins with
            | Some (v, pinned) when holds tol ~pinned ~measured -> v
            | pin ->
                let shown = Json.render (Json.Num measured) in
                Printf.eprintf "work_pins: %s %s: pinned %s, measured %s (%s)\n" w key
                  (match pin with Some (v, _) -> v | None -> "nothing")
                  shown
                  (match tol with Exact -> "must match exactly" | Within_1pct -> "must stay within 1%");
                shown
          in
          Printf.printf "%s %s %s %s\n" w key (mark tol) text)
        keys)
    workloads
