(** Scale sweep — throughput and memory as the network grows.

    Not a figure of the paper: the paper simulates 60000 nodes but only
    reports message counts.  This experiment exercises the flat
    structure-of-arrays RI store, the delta update encoding, the
    builders and the snapshot plane at up to a million nodes, reporting
    build seconds, queries/sec, update-waves/sec, wire bytes per wave,
    resident RI bytes per node, peak heap, process RSS, and snapshot
    save/load times — the numbers that decide whether the simulator
    itself scales.  Everything runs on the calling domain. *)

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

(* The million-node plane: reached with [risim scale --big].  The
   100k overlap point ties the two sweeps together. *)
let big_sizes = [ 100_000; 250_000; 500_000; 1_000_000 ]

type opts = {
  o_compress : int option;
      (** quantize RI cells to this many bits and report the
          accuracy/size tradeoff against the exact store *)
  o_snapshot : string option;
      (** directory for snapshot save/load round-trip timing *)
}

let default_opts = { o_compress = None; o_snapshot = None }

type compress_point = {
  c_bits : int;
  c_rel_err_bound : float;  (** worst-case per-cell decode error *)
  c_bytes_per_node : float;  (** quantized store *)
  c_exact_bytes_per_node : float;  (** same network, exact store *)
  c_found_quant : int;  (** results found across the probe queries *)
  c_found_exact : int;
}

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
  p_snap_save_ms : float option;
  p_snap_load_ms : float option;
  p_compress : compress_point option;
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

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

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

(* Peer-row store footprint only: quantization packs the rows; the
   node's local summary stays exact in both regimes and would otherwise
   flatten the ratio at tree degrees. *)
let store_bytes_per_node net =
  let n = Network.size net in
  if not (Network.has_ri net) || n = 0 then 0.
  else begin
    let bytes = ref 0 in
    for v = 0 to n - 1 do
      bytes := !bytes + Rowstore.capacity_bytes (Scheme.rowstore (Network.ri net v))
    done;
    float_of_int !bytes /. float_of_int n
  end

(* Quantized vs exact: same overlay, same content, same query streams;
   the difference in found results is the routing cost of the log-
   bucketed cells — the resident-store analogue of the paper's
   Figure 15 accuracy/size tradeoff. *)
let measure_compress ~cfg ~queries bits =
  let cfg_q = { cfg with Config.quant_bits = Some bits } in
  (match Config.validate cfg_q with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fig_scale.measure: " ^ msg));
  let setup_x = Trial.build cfg ~trial:0 in
  let setup_q = Trial.build cfg_q ~trial:0 in
  let found run_cfg setup =
    let acc = ref 0 in
    for _ = 1 to queries do
      acc := !acc + (Trial.run_query_on run_cfg setup).Trial.found
    done;
    !acc
  in
  {
    c_bits = bits;
    c_rel_err_bound =
      (match Config.quant cfg_q with
      | Some q -> Rowstore.quant_rel_error_bound q
      | None -> 0.);
    c_bytes_per_node = store_bytes_per_node setup_q.Trial.network;
    c_exact_bytes_per_node = store_bytes_per_node setup_x.Trial.network;
    c_found_quant = found cfg_q setup_q;
    c_found_exact = found cfg setup_x;
  }

let measure_snapshot ~cfg ~dir setup =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path =
    Filename.concat dir (Printf.sprintf "scale_%d.risnap" cfg.Config.num_nodes)
  in
  let (), save_s =
    timed (fun () -> Snapshot.save path cfg ~trial:0 ~rooted:false setup)
  in
  let _loaded, load_s = timed (fun () -> Snapshot.load path cfg ~trial:0) in
  (save_s *. 1000., load_s *. 1000.)

let measure ?(opts = default_opts) ~base ~spec n =
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
  let snap =
    Option.map
      (fun dir -> measure_snapshot ~cfg ~dir setup_u)
      opts.o_snapshot
  in
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
  let compress =
    Option.map (measure_compress ~cfg ~queries) opts.o_compress
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
    p_snap_save_ms = Option.map fst snap;
    p_snap_load_ms = Option.map snd snap;
    p_compress = compress;
  }

let sweep ?sizes ?opts ~base ~spec () =
  let sizes =
    match sizes with
    | Some s -> s
    | None -> (
        match List.filter (fun s -> s <= base.Config.num_nodes) default_sizes with
        | [] -> [ base.Config.num_nodes ]
        | s -> s)
  in
  List.map (measure ?opts ~base ~spec) sizes

let opt_cell ~decimals = function
  | None -> Report.cell_text "-"
  | Some v -> Report.cell_number ~decimals v

let report_of points =
  let with_snap =
    List.exists (fun p -> p.p_snap_save_ms <> None) points
  in
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
        ]
        @
        if with_snap then
          [
            opt_cell ~decimals:0 p.p_snap_save_ms;
            opt_cell ~decimals:0 p.p_snap_load_ms;
          ]
        else [])
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
    @ if with_snap then [ "Save ms"; "Load ms" ] else []
  in
  Report.make ~id ~title ~paper_claim ~header ~rows

let compress_report_of points =
  let rows =
    List.filter_map
      (fun p ->
        Option.map
          (fun c ->
            [
              Report.cell_number ~decimals:0 (float_of_int p.p_nodes);
              Report.cell_number ~decimals:0 (float_of_int c.c_bits);
              Report.cell_number ~decimals:3 c.c_rel_err_bound;
              Report.cell_number ~decimals:0 c.c_bytes_per_node;
              Report.cell_number ~decimals:0 c.c_exact_bytes_per_node;
              Report.cell_number ~decimals:0 (float_of_int c.c_found_quant);
              Report.cell_number ~decimals:0 (float_of_int c.c_found_exact);
              Report.cell_number ~decimals:3
                (if c.c_found_exact = 0 then 1.
                 else float_of_int c.c_found_quant /. float_of_int c.c_found_exact);
            ])
          p.p_compress)
      points
  in
  Report.make ~id:"scale-compress"
    ~title:"Compressed rowstore: size vs routing accuracy"
    ~paper_claim:
      "Section 6 argues summarized (compressed) indices trade a bounded \
       accuracy loss for much smaller tables; here applied to the \
       resident store (Figure 15 analogue)."
    ~header:
      [
        "Nodes";
        "Bits";
        "Max rel err";
        "B/node";
        "Exact B/node";
        "Found";
        "Found exact";
        "Accuracy";
      ]
    ~rows

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
            \"rss_mb\": %s, \"snap_save_ms\": %s, \"snap_load_ms\": %s%s}"
           p.p_nodes p.p_build_s p.p_queries_per_s p.p_query_minor_words
           p.p_waves_per_s p.p_wave_minor_words p.p_wire_bytes_per_wave p.p_ri_bytes_per_node
           p.p_top_heap_mb
           (json_opt p.p_rss_mb)
           (json_opt p.p_snap_save_ms)
           (json_opt p.p_snap_load_ms)
           (match p.p_compress with
           | None -> ""
           | Some c ->
               Printf.sprintf
                 ", \"compress\": {\"bits\": %d, \"rel_err_bound\": %.5f, \
                  \"bytes_per_node\": %.1f, \"exact_bytes_per_node\": %.1f, \
                  \"found_quant\": %d, \"found_exact\": %d}"
                 c.c_bits c.c_rel_err_bound c.c_bytes_per_node
                 c.c_exact_bytes_per_node c.c_found_quant c.c_found_exact)))
    points;
  Buffer.add_string buf "\n  ]";
  Buffer.contents buf

let run ~base ~spec = report_of (sweep ~base ~spec ())
