(** Scale sweep — throughput and memory as the network grows.

    Not a figure of the paper: the paper simulates 60000 nodes but only
    reports message counts.  This experiment exercises the flat
    structure-of-arrays RI store, the delta update encoding and the
    builders, reporting build seconds, queries/sec, update-waves/sec,
    wire bytes per wave, resident RI bytes per node, peak heap and
    process RSS — the numbers that decide whether the simulator itself
    scales.  Everything runs on the calling domain. *)

open Ri_util
open Ri_core
open Ri_p2p
open Ri_sim

let id = "scale"

let title = "Throughput and memory at network scale"

let paper_claim =
  "Not in the paper: throughput of this simulator's flat RI store.  \
   Queries/sec should degrade sub-linearly (visits are bounded by the \
   stop condition) and RI bytes per node should stay near-constant as \
   N grows.  Queries/sec includes the row installs of the rooted \
   network, paid by the first walk to read each node."

let default_sizes = [ 2_000; 10_000; 50_000; 100_000 ]

type point = {
  p_nodes : int;
  p_build_s : float;
      (** rooted pass (its rows installed by the first queries) plus
          converged construction *)
  p_queries_per_s : float;
      (** walks over one rooted network, which installs a node's rows
          on its first read: the first walks pay the installs on their
          paths *)
  p_query_minor_words : float;
      (** minor words allocated per query, those installs included *)
  p_waves_per_s : float;
  p_wave_minor_words : float;  (** minor words allocated per wave *)
  p_wire_bytes_per_wave : float;  (** delta-encoded bytes, {!Ri_p2p.Update} *)
  p_ri_bytes_per_node : float;  (** flat-store resident bytes, whole network *)
  p_top_heap_mb : float;  (** [Gc.quick_stat].top_heap_words so far *)
  p_rss_mb : float option;  (** process resident set ({!Ri_util.Rss}) *)
}

let now = Unix.gettimeofday

(* Time [n] repetitions of [f], returning (ops/sec, minor words/op).
   The Gc counter costs nothing and the loop allocates nothing of its
   own, so the words are the operation's. *)
let rate n f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  for i = 0 to n - 1 do
    f i
  done;
  let dt = now () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  let n' = float_of_int n in
  ((if dt > 0. then n' /. dt else 0.), dw /. n')

let ri_bytes_per_node net =
  let n = Network.size net in
  if not (Network.has_ri net) || n = 0 then 0.
  else begin
    let bytes = ref 0 in
    for v = 0 to n - 1 do
      bytes := !bytes + Scheme.storage_bytes (Network.ri net v)
    done;
    float_of_int !bytes /. float_of_int n
  end

let measure ~base ~spec n =
  let cfg = Config.scaled base ~num_nodes:n in
  if Fault.active cfg.Config.fault then
    invalid_arg "Fig_scale.measure: the fault plane must be inert";
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fig_scale.measure: " ^ msg));
  let queries = max 1 spec.Runner.max_trials in
  let waves = max 1 spec.Runner.min_trials in
  (* This sweep bypasses Runner, so it reports its own progress: one
     "trial" per timed operation at this size. *)
  Ri_obs.Serve.Progress.begin_run
    ~label:(Printf.sprintf "scale n=%d" n)
    ~total:(queries + waves) ();
  let t0 = now () in
  let setup_q = Trial.build cfg ~trial:0 in
  let setup_u = Trial.build ~purpose:Trial.For_update cfg ~trial:0 in
  let build_s = now () -. t0 in
  let qps, q_words =
    rate queries (fun i ->
        Ri_obs.Serve.Progress.set_trials i;
        ignore (Trial.run_query_on cfg setup_q))
  in
  let wire = ref 0 in
  let wps, w_words =
    rate waves (fun i ->
        Ri_obs.Serve.Progress.set_trials (queries + i);
        let m = Trial.run_update_on cfg setup_u in
        wire := !wire + m.Trial.update_wire_bytes)
  in
  {
    p_nodes = n;
    p_build_s = build_s;
    p_queries_per_s = qps;
    p_query_minor_words = q_words;
    p_waves_per_s = wps;
    p_wave_minor_words = w_words;
    p_wire_bytes_per_wave = float_of_int !wire /. float_of_int waves;
    p_ri_bytes_per_node = ri_bytes_per_node setup_u.Trial.network;
    p_top_heap_mb =
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6;
    p_rss_mb = Rss.resident_mb ();
  }

let sweep ?sizes ~base ~spec () =
  let sizes =
    match sizes with
    | Some s -> s
    | None -> (
        match List.filter (fun s -> s <= base.Config.num_nodes) default_sizes with
        | [] -> [ base.Config.num_nodes ]
        | s -> s)
  in
  List.map (measure ~base ~spec) sizes

let opt_cell ~decimals = function
  | None -> Report.cell_text "-"
  | Some v -> Report.cell_number ~decimals v

let report_of points =
  let rows =
    List.map
      (fun p ->
        [
          Report.cell_number ~decimals:0 (float_of_int p.p_nodes);
          Report.cell_number ~decimals:2 p.p_build_s;
          Report.cell_number ~decimals:1 p.p_queries_per_s;
          Report.cell_number ~decimals:1 p.p_waves_per_s;
          Report.cell_number ~decimals:0 p.p_wire_bytes_per_wave;
          Report.cell_number ~decimals:0 p.p_ri_bytes_per_node;
          Report.cell_number ~decimals:1 p.p_top_heap_mb;
          opt_cell ~decimals:1 p.p_rss_mb;
        ])
      points
  in
  let header =
    [
      "Nodes";
      "Build s";
      "Queries/s";
      "Waves/s";
      "Wire B/wave";
      "RI B/node";
      "Heap MB";
      "RSS MB";
    ]
  in
  Report.make ~id ~title ~paper_claim ~header ~rows

let json_opt = function None -> "null" | Some v -> Printf.sprintf "%.3f" v

let json_of points =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"nodes\": %d, \"build_s\": %.3f, \"queries_per_s\": %.1f, \
            \"query_minor_words\": %.1f, \"waves_per_s\": %.2f, \
            \"wave_minor_words\": %.1f, \"wire_bytes_per_wave\": %.1f, \
            \"ri_bytes_per_node\": %.1f, \"top_heap_mb\": %.1f, \
            \"rss_mb\": %s}"
           p.p_nodes p.p_build_s p.p_queries_per_s p.p_query_minor_words
           p.p_waves_per_s p.p_wave_minor_words p.p_wire_bytes_per_wave p.p_ri_bytes_per_node
           p.p_top_heap_mb
           (json_opt p.p_rss_mb)))
    points;
  Buffer.add_string buf "\n  ]";
  Buffer.contents buf

let run ~base ~spec = report_of (sweep ~base ~spec ())
