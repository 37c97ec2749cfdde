open Ri_util
open Ri_core
open Ri_content
open Ri_p2p

(* Versioned binary snapshot of a converged trial setup.

   Layout: one 4096-byte header page (magic, fingerprint, state scalars,
   section directory), then nine page-aligned sections:

     adj_offsets  int64[n+1]   per-node offsets into adj_flat
     adj_flat     int32[2m]    concatenated sorted adjacency rows
     matches      int32[n]     query results placed per node
     summaries    f64[n*(t+1)] per-node local summary (total, by_topic)
     qtopics      int32[q]     the trial's query topics
     row_counts   int32[n]     RI rows per node
     peers        int32[R]     row peers, in each store's iteration order
     stamps       int64[R]     per-row update-wave stamps
     rowdata      f64[R*s] or bytes[R*cb]   row cells (exact | packed)

   Everything load needs that is not config-derivable is in the file;
   everything that is config-derivable (universe, query stop, PRNG
   streams) is re-derived, and a 21-field fingerprint ties the file to
   the exact (config, trial) that produced it — loading under any other
   configuration fails loudly rather than silently mixing states.  The
   peers sections record each store's live iteration order, so a loaded
   network's aggregation (float summation) order — and with it every
   routed query — is bit-for-bit the saved network's. *)

let magic = "RISNAP01"

let page = 4096

let align off = (off + page - 1) / page * page

let f64 = Int64.bits_of_float

let bad fmt = Printf.ksprintf (fun s -> failwith ("Snapshot: " ^ s)) fmt

(* Fixed header slots (8 bytes each, after the 8-byte magic). *)
let slot_fingerprint = 0 (* .. 20 *)

let slot_distance_floor = 21

let slot_stride = 22

let slot_rooted = 23

let slot_origin = 24

let slot_converged_iters = 25

let slot_next_wave = 26

let slot_qtopics = 27

let slot_total_matches = 28

let slot_rows = 29

let slot_half_edges = 30

let slot_width = 31

let slot_sections = 32 (* 9 x (offset, length) pairs: 32 .. 49 *)

(* The (config, trial) fields the saved state is a pure function of —
   compared slot-for-slot at load time.  Float-valued knobs are
   compared by IEEE bit pattern: the fingerprint asks "same build
   inputs", not "approximately similar". *)
let fingerprint (cfg : Config.t) ~trial =
  let dist_code, f_doc, f_node =
    match cfg.distribution with
    | Placement.Uniform -> (0L, 0L, 0L)
    | Placement.Biased { doc_share; node_share } ->
        (1L, f64 doc_share, f64 node_share)
  in
  let topo_code, topo_links, topo_expo =
    match cfg.topology with
    | Config.Tree -> (0L, 0L, 0L)
    | Config.Tree_with_cycles { extra_links } ->
        (1L, Int64.of_int extra_links, 0L)
    | Config.Power_law_graph -> (2L, 0L, f64 cfg.outdegree_exponent)
  in
  let sch_code, sch_horizon, sch_fanout =
    match Config.scheme_kind cfg with
    | None -> bad "a No-RI configuration has no index state to snapshot"
    | Some Scheme.Cri_kind -> (1L, 0L, 0L)
    | Some (Scheme.Hri_kind { horizon; fanout }) ->
        (2L, Int64.of_int horizon, f64 fanout)
    | Some (Scheme.Eri_kind { fanout }) -> (3L, 0L, f64 fanout)
    | Some (Scheme.Hybrid_kind { horizon; fanout }) ->
        (4L, Int64.of_int horizon, f64 fanout)
  in
  let quant_bits, quant_vmax =
    match Config.quant cfg with
    | None -> (0L, 0L)
    | Some q -> (Int64.of_int q.Rowstore.bits, f64 q.Rowstore.vmax)
  in
  [|
    ("num_nodes", Int64.of_int cfg.num_nodes);
    ("topics", Int64.of_int cfg.topics);
    ("fanout", Int64.of_int cfg.fanout);
    ("query_results", Int64.of_int cfg.query_results);
    ("seed", Int64.of_int cfg.seed);
    ("trial", Int64.of_int trial);
    ("background_per_node", f64 cfg.background_per_node);
    ("distribution", dist_code);
    ("doc_share", f_doc);
    ("node_share", f_node);
    ("topology", topo_code);
    ("extra_links", topo_links);
    ("outdegree_exponent", topo_expo);
    ("scheme", sch_code);
    ("horizon", sch_horizon);
    ("scheme_fanout", sch_fanout);
    ("cycle_policy",
     match cfg.cycle_policy with Network.No_op -> 0L | Network.Detect_recover -> 1L);
    ("min_update", f64 cfg.min_update);
    ("compression_ratio", f64 cfg.compression_ratio);
    ("quant_bits", quant_bits);
    ("quant_vmax", quant_vmax);
  |]

(* Re-derive the per-trial PRNG substreams exactly as [Trial.build]
   does: the split states are fixed once the master is seeded, so the
   trial stream a loaded setup hands out is the very stream the
   generator-built setup would have. *)
let trial_streams (cfg : Config.t) ~trial =
  let master = Prng.create (cfg.seed + (trial * 0x9e3779b)) in
  let _topo = Prng.split master in
  let _place = Prng.split master in
  let _query = Prng.split master in
  let net_rng = Prng.split master in
  let trial_rng = Prng.split master in
  (net_rng, trial_rng)

let set_slot hdr i v = Bytes.set_int64_le hdr (8 + (8 * i)) v

let get_slot hdr i = Bytes.get_int64_le hdr (8 + (8 * i))

let slot_int hdr i = Int64.to_int (get_slot hdr i)

(* ------------------------------------------------------------------ *)
(* Save.                                                               *)

let save path (cfg : Config.t) ~trial ~rooted (setup : Trial.setup) =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error m -> invalid_arg ("Snapshot.save: " ^ m));
  let net = setup.Trial.network in
  let n = Network.size net in
  if Network.perturbed net then
    invalid_arg "Snapshot.save: a perturbed network draws from its PRNG \
                 mid-run; its state cannot be captured";
  if not (Network.has_ri net) then
    invalid_arg "Snapshot.save: No-RI network";
  if cfg.compression_ratio <> 0. then
    invalid_arg "Snapshot.save: only exact (uncompressed) index \
                 configurations are snapshotted";
  if n <> cfg.num_nodes then invalid_arg "Snapshot.save: network/config size mismatch";
  let topics = cfg.topics in
  let fp = fingerprint cfg ~trial in
  let stride = Rowstore.stride (Scheme.rowstore (Network.ri net 0)) in
  let width = Scheme.width (Network.ri net 0) in
  let quant = Config.quant cfg in
  let half_edges = ref 0 in
  for v = 0 to n - 1 do
    half_edges := !half_edges + Network.degree net v
  done;
  let rows = ref 0 in
  for v = 0 to n - 1 do
    rows := !rows + Rowstore.count (Scheme.rowstore (Network.ri net v))
  done;
  let rows = !rows in
  let row_bytes =
    match quant with
    | None -> 8 * stride
    | Some _ -> Rowstore.row_code_bytes (Scheme.rowstore (Network.ri net 0))
  in
  let qtopics = Array.of_list setup.Trial.query.Workload.topics in
  let p = setup.Trial.placement in
  (* Section lengths in bytes, in file order. *)
  let lengths =
    [|
      8 * (n + 1);
      4 * !half_edges;
      4 * n;
      8 * n * (topics + 1);
      4 * Array.length qtopics;
      4 * n;
      4 * rows;
      8 * rows;
      rows * row_bytes;
    |]
  in
  let hdr = Bytes.make page '\000' in
  Bytes.blit_string magic 0 hdr 0 8;
  Array.iteri (fun i (_, v) -> set_slot hdr (slot_fingerprint + i) v) fp;
  set_slot hdr slot_distance_floor (f64 (Network.update_distance_floor net));
  set_slot hdr slot_stride (Int64.of_int stride);
  set_slot hdr slot_rooted (if rooted then 1L else 0L);
  set_slot hdr slot_origin (Int64.of_int setup.Trial.origin);
  set_slot hdr slot_converged_iters
    (Int64.of_int (Network.converged_iterations net));
  set_slot hdr slot_next_wave (Int64.of_int (Network.wave_counter net));
  set_slot hdr slot_qtopics (Int64.of_int (Array.length qtopics));
  set_slot hdr slot_total_matches
    (Int64.of_int p.Placement.total_matches);
  set_slot hdr slot_rows (Int64.of_int rows);
  set_slot hdr slot_half_edges (Int64.of_int !half_edges);
  set_slot hdr slot_width (Int64.of_int width);
  let off = ref page in
  Array.iteri
    (fun i len ->
      set_slot hdr (slot_sections + (2 * i)) (Int64.of_int !off);
      set_slot hdr (slot_sections + (2 * i) + 1) (Int64.of_int len);
      off := align (!off + len))
    lengths;
  let oc = Out_channel.open_bin path in
  Fun.protect
    ~finally:(fun () -> Out_channel.close oc)
    (fun () ->
      Out_channel.output_bytes oc hdr;
      let pos = ref page in
      let section_buf i buf =
        Out_channel.output_bytes oc buf;
        pos := !pos + lengths.(i);
        let padded = align !pos in
        if padded > !pos then begin
          Out_channel.output_string oc (String.make (padded - !pos) '\000');
          pos := padded
        end
      in
      let section i fill =
        let buf = Bytes.make lengths.(i) '\000' in
        fill buf;
        section_buf i buf
      in
      (* adj_offsets + adj_flat *)
      section 0 (fun buf ->
          let acc = ref 0 in
          for v = 0 to n - 1 do
            Bytes.set_int64_le buf (8 * v) (Int64.of_int !acc);
            acc := !acc + Network.degree net v
          done;
          Bytes.set_int64_le buf (8 * n) (Int64.of_int !acc));
      section 1 (fun buf ->
          let k = ref 0 in
          for v = 0 to n - 1 do
            Array.iter
              (fun u ->
                Bytes.set_int32_le buf (4 * !k) (Int32.of_int u);
                incr k)
              (Network.neighbors net v)
          done);
      section 2 (fun buf ->
          for v = 0 to n - 1 do
            Bytes.set_int32_le buf (4 * v)
              (Int32.of_int p.Placement.matches.(v))
          done);
      section 3 (fun buf ->
          for v = 0 to n - 1 do
            (* The live (projected) local summary: with exact
               compression it doubles as the content summary, keeping
               one section authoritative for both. *)
            let s = Network.local_summary net v in
            let base = 8 * v * (topics + 1) in
            Bytes.set_int64_le buf base (f64 s.Summary.total);
            for t = 0 to topics - 1 do
              Bytes.set_int64_le buf
                (base + (8 * (t + 1)))
                (f64 s.Summary.by_topic.(t))
            done
          done);
      section 4 (fun buf ->
          Array.iteri
            (fun i t -> Bytes.set_int32_le buf (4 * i) (Int32.of_int t))
            qtopics);
      section 5 (fun buf ->
          for v = 0 to n - 1 do
            Bytes.set_int32_le buf (4 * v)
              (Int32.of_int (Rowstore.count (Scheme.rowstore (Network.ri net v))))
          done);
      let row = ref 0 in
      let peer_buf = Bytes.make lengths.(6) '\000' in
      let stamp_buf = Bytes.make lengths.(7) '\000' in
      let data_buf = Bytes.make lengths.(8) '\000' in
      for v = 0 to n - 1 do
        let store = Scheme.rowstore (Network.ri net v) in
        Rowstore.iter store (fun peer offv ->
            let i = !row in
            incr row;
            Bytes.set_int32_le peer_buf (4 * i) (Int32.of_int peer);
            Bytes.set_int64_le stamp_buf (8 * i)
              (Int64.of_int (Rowstore.stamp store peer));
            match quant with
            | None ->
                let scratch = Rowstore.scratch store in
                Rowstore.decode_row store offv scratch;
                for c = 0 to stride - 1 do
                  Bytes.set_int64_le data_buf
                    (8 * ((i * stride) + c))
                    (f64 scratch.(c))
                done
            | Some _ -> Rowstore.blit_row_codes store offv data_buf (i * row_bytes))
      done;
      (* The row sections are written from their fill buffers directly —
         at a million nodes these are hundreds of MB and a staging copy
         through [section] would double both the traffic and the live
         bytes. *)
      section_buf 6 peer_buf;
      section_buf 7 stamp_buf;
      section_buf 8 data_buf)

(* ------------------------------------------------------------------ *)
(* Load.                                                               *)

let read_section ic hdr i =
  let off = slot_int hdr (slot_sections + (2 * i)) in
  let len = slot_int hdr (slot_sections + (2 * i) + 1) in
  if off < page || len < 0 then bad "corrupt section directory";
  In_channel.seek ic (Int64.of_int off);
  let buf = Bytes.create len in
  (match In_channel.really_input ic buf 0 len with
  | Some () -> ()
  | None -> bad "truncated file (section %d)" i);
  buf

let load path (cfg : Config.t) ~trial =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error m -> invalid_arg ("Snapshot.load: " ^ m));
  let fp = fingerprint cfg ~trial in
  let ic = In_channel.open_bin path in
  Fun.protect
    ~finally:(fun () -> In_channel.close ic)
    (fun () ->
      let hdr = Bytes.create page in
      (match In_channel.really_input ic hdr 0 page with
      | Some () -> ()
      | None -> bad "truncated header");
      if Bytes.sub_string hdr 0 8 <> magic then
        bad "bad magic (not a snapshot, or an incompatible version)";
      Array.iteri
        (fun i (name, expected) ->
          let got = get_slot hdr (slot_fingerprint + i) in
          if got <> expected then
            bad "fingerprint mismatch on %s: file has %Ld, configuration \
                 expects %Ld"
              name got expected)
        fp;
      let n = cfg.num_nodes in
      let topics = cfg.topics in
      let stride = slot_int hdr slot_stride in
      let width = slot_int hdr slot_width in
      let rows = slot_int hdr slot_rows in
      let half_edges = slot_int hdr slot_half_edges in
      let origin = slot_int hdr slot_origin in
      let rooted = get_slot hdr slot_rooted <> 0L in
      let quant = Config.quant cfg in
      let row_bytes =
        match quant with
        | None -> 8 * stride
        | Some q -> ((stride * q.Rowstore.bits) + 7) / 8
      in
      (* adjacency *)
      let offs = read_section ic hdr 0 in
      let flat = read_section ic hdr 1 in
      if Bytes.length flat <> 4 * half_edges then bad "adjacency length mismatch";
      let adj =
        Array.init n (fun v ->
            let lo = Int64.to_int (Bytes.get_int64_le offs (8 * v)) in
            let hi = Int64.to_int (Bytes.get_int64_le offs (8 * (v + 1))) in
            if lo < 0 || hi < lo || hi > half_edges then
              bad "corrupt adjacency offsets at node %d" v;
            Array.init (hi - lo) (fun i ->
                Int32.to_int (Bytes.get_int32_le flat (4 * (lo + i)))))
      in
      (* content *)
      let matches_b = read_section ic hdr 2 in
      let matches =
        Array.init n (fun v -> Int32.to_int (Bytes.get_int32_le matches_b (4 * v)))
      in
      let sums_b = read_section ic hdr 3 in
      let locals =
        Array.init n (fun v ->
            let base = 8 * v * (topics + 1) in
            let total =
              Int64.float_of_bits (Bytes.get_int64_le sums_b base)
            in
            let by_topic =
              Array.init topics (fun t ->
                  Int64.float_of_bits
                    (Bytes.get_int64_le sums_b (base + (8 * (t + 1)))))
            in
            Summary.make ~total ~by_topic)
      in
      let qt_b = read_section ic hdr 4 in
      let query_topics =
        List.init (slot_int hdr slot_qtopics) (fun i ->
            Int32.to_int (Bytes.get_int32_le qt_b (4 * i)))
      in
      (* routing indices *)
      let counts_b = read_section ic hdr 5 in
      let peers_b = read_section ic hdr 6 in
      let stamps_b = read_section ic hdr 7 in
      let data_b = read_section ic hdr 8 in
      if Bytes.length data_b <> rows * row_bytes then
        bad "row payload length contradicts the configured cell format";
      let kind =
        match Config.scheme_kind cfg with
        | Some k -> k
        | None -> bad "a No-RI configuration cannot load index state"
      in
      (* Each node's slice of the row sections is fixed by the prefix
         sums of the counts, so each node's store is rebuilt from its
         own slice alone. *)
      let bases = Array.make (n + 1) 0 in
      for v = 0 to n - 1 do
        let count = Int32.to_int (Bytes.get_int32_le counts_b (4 * v)) in
        if count < 0 then bad "negative row count at node %d" v;
        bases.(v + 1) <- bases.(v) + count
      done;
      if bases.(n) <> rows then bad "row counts disagree with the row total";
      let build v =
        let base = bases.(v) in
        let count = bases.(v + 1) - base in
        let peers =
          Array.init count (fun i ->
              Int32.to_int (Bytes.get_int32_le peers_b (4 * (base + i))))
        in
        let stamps =
          Array.init count (fun i ->
              Int64.to_int (Bytes.get_int64_le stamps_b (8 * (base + i))))
        in
        let payload =
          match quant with
          | None ->
              let cells = Array.make (count * stride) 0. in
              for i = 0 to (count * stride) - 1 do
                cells.(i) <-
                  Int64.float_of_bits
                    (Bytes.get_int64_le data_b (8 * ((base * stride) + i)))
              done;
              `Floats cells
          | Some _ ->
              `Codes (Bytes.sub data_b (base * row_bytes) (count * row_bytes))
        in
        let store = Rowstore.of_loaded ~stride ?quant ~peers ~stamps payload in
        Scheme.with_rowstore
          (Scheme.create ~rows:1 ?quant kind ~width ~local:locals.(v))
          store
      in
      let ris = Array.init n build in
      let placement =
        {
          Placement.matches;
          summaries = locals;
          total_matches = slot_int hdr slot_total_matches;
        }
      in
      let net_rng, trial_rng = trial_streams cfg ~trial in
      let network =
        Network.of_parts ~adj
          ~content:(Network.content_of_placement placement)
          ~scheme_kind:(Some kind)
          ~compression:(Config.compression cfg)
          ~cycle_policy:cfg.cycle_policy ~min_update:cfg.min_update
          ~update_distance_floor:
            (Int64.float_of_bits (get_slot hdr slot_distance_floor))
          ~rng:net_rng ~ris ~locals
          ~converged_iterations:(slot_int hdr slot_converged_iters)
          ~next_wave:(slot_int hdr slot_next_wave)
          ()
      in
      (* Register the template under a snapshot-source key: later
         accesses get bit-identical copies, and the source tag keeps
         this slot — and the run summary's provenance counts — disjoint
         from generator builds of the same configuration. *)
      let network =
        Setup_cache.network
          {
            Setup_cache.n_graph =
              {
                Setup_cache.g_topology = cfg.topology;
                g_num_nodes = cfg.num_nodes;
                g_fanout = cfg.fanout;
                g_exponent = cfg.outdegree_exponent;
                g_seed = cfg.seed;
                g_trial = trial;
              };
            n_content =
              {
                Setup_cache.c_num_nodes = cfg.num_nodes;
                c_topics = cfg.topics;
                c_query_results = cfg.query_results;
                c_distribution = cfg.distribution;
                c_background = cfg.background_per_node;
                c_seed = cfg.seed;
                c_trial = trial;
              };
            n_scheme = Some kind;
            n_ratio = cfg.compression_ratio;
            n_error_kind = cfg.compression_mode;
            n_policy = cfg.cycle_policy;
            n_min_update = cfg.min_update;
            n_floor = cfg.update_distance_floor;
            n_origin = (if rooted then Some origin else None);
            n_quant = cfg.quant_bits;
            n_source = Setup_cache.Snapshot path;
          }
          (fun () -> network)
      in
      {
        Trial.network;
        universe = Topic.make topics;
        query = Workload.query ~topics:query_topics ~stop:cfg.stop_condition;
        origin;
        rng = trial_rng;
        placement;
      })
