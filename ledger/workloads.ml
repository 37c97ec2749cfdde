(* The ledger's workloads and the body of one rep.

   A rep is what one child process runs: build the workload's inputs
   from the seed, do the untimed set-up, then time the unit.  On the
   traced pass the rep also splits the unit's wall time across the
   simulator's layers.  Everything is measured from outside the
   program: spans time calls into public entry points (Registry
   entries, Traffic.measure, Traffic.json_of, Report.to_string,
   Query.run), and counts come from what the program already records
   (Phase.totals, Gcprof.stats, Metrics.render, Setup_cache.stats). *)

open Ri_util
open Ri_sim
module E = Ri_experiments

type scale = Full | Smoke

let scale_name = function Full -> "full" | Smoke -> "smoke"

let scale_of_string = function
  | "full" -> Some Full
  | "smoke" -> Some Smoke
  | _ -> None

type kind =
  | Figures of {
      base : Config.t;
      spec : Runner.spec;
      experiments : E.Registry.experiment list;
    }
  | Traffic of { cfg : Config.t; opts : E.Traffic.opts; qps : float }

type t = { name : string; why : string; make : scale -> seed:int -> kind }

let base ~nodes ~seed =
  { (Config.scaled Config.base ~num_nodes:nodes) with Config.seed }

(* A fixed trial count: the CI stopping rule would otherwise let the
   amount of work per rep depend on the seed. *)
let figures ~ids ~nodes ~trials ~seed =
  let find id =
    match E.Registry.find id with
    | Some e -> e
    | None -> invalid_arg ("ledger: unknown experiment " ^ id)
  in
  Figures
    {
      base = base ~nodes ~seed;
      spec = { Runner.min_trials = trials; max_trials = trials; target_rel_error = 0.1 };
      experiments = List.map find ids;
    }

let traffic ~topology ~nodes ~qps ~duration ~service_rate ~update_rate ~trials ~seed =
  let cfg = Config.with_topology (base ~nodes ~seed) topology in
  let cfg = Config.with_search cfg (Config.Ri (Config.eri cfg)) in
  Traffic
    {
      cfg;
      qps;
      opts =
        {
          E.Traffic.default_opts with
          E.Traffic.o_qps = [ qps ];
          o_duration = duration;
          o_service_rate = service_rate;
          o_link_latency = 0.2;
          o_update_rate = update_rate;
          o_trials = trials;
        };
    }

let all =
  [
    {
      name = "paper-figs";
      why =
        "What a reproducer runs: figures 13-20 and flooding, closed loop. RI \
         builds dominate, most network lookups miss the setup cache, the \
         engine does no work.";
      make =
        (fun scale ~seed ->
          let nodes, trials = match scale with Full -> (2000, 5) | Smoke -> (300, 2) in
          figures ~ids:E.Registry.ids ~nodes ~trials ~seed);
    };
    (* Small networks, many trials: fault plans and drift make the work
       of one trial vary widely, so the unit averages over 16 of them. *)
    {
      name = "faults";
      why =
        "The fault sweep: drift update waves through lossy links and \
         converged builds on mutable placements that bypass the network \
         cache. No engine.";
      make =
        (fun scale ~seed ->
          let nodes, trials = match scale with Full -> (150, 16) | Smoke -> (300, 1) in
          figures ~ids:[ "faults" ] ~nodes ~trials ~seed);
    };
    {
      name = "traffic-steady";
      why =
        "Open-loop Poisson reads on a tree below the knee, mailboxes near \
         empty: the per-delivery cost of Engine plus Query.Step dominates.";
      make =
        (fun scale ~seed ->
          match scale with
          | Full ->
              traffic ~topology:Config.Tree ~nodes:10_000 ~qps:5000. ~duration:0.4
                ~service_rate:20_000. ~update_rate:0. ~trials:2 ~seed
          | Smoke ->
              traffic ~topology:Config.Tree ~nodes:300 ~qps:2000. ~duration:0.05
                ~service_rate:20_000. ~update_rate:0. ~trials:1 ~seed);
    };
    {
      name = "traffic-overload";
      why =
        "Power-law reads plus 50 update waves/s past the knee (queue share \
         ~63%): hub queues, and update deliveries rewrite rows that \
         in-flight walks read.";
      (* Many small power-law trials rather than one large one: over ten
         seeds the work of one 10000-node graph spreads 76% (IQR over
         median), that of 24 graphs of 1000 nodes 2.7%.  The slow service
         rate keeps those small hubs past the knee. *)
      make =
        (fun scale ~seed ->
          match scale with
          | Full ->
              traffic ~topology:Config.Power_law_graph ~nodes:1000 ~qps:2000.
                ~duration:0.1 ~service_rate:1000. ~update_rate:50. ~trials:24 ~seed
          | Smoke ->
              traffic ~topology:Config.Power_law_graph ~nodes:300 ~qps:2000.
                ~duration:0.05 ~service_rate:1000. ~update_rate:50. ~trials:2 ~seed);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Traffic set-up builds every trial's converged network cold, so the
   timed [measure] pays only the setup cache's [Network.copy].  Figure
   workloads build nothing ahead: users pay those builds on every run. *)
let prepare = function
  | Figures _ -> ()
  | Traffic { cfg; opts; _ } ->
      for trial = 0 to opts.E.Traffic.o_trials - 1 do
        ignore (Trial.build ~purpose:Trial.For_update cfg ~trial)
      done

(* ------------------------------------------------------------------ *)
(* Spans.                                                              *)

let now = Unix.gettimeofday

let phase_totals () =
  List.map (fun (name, _, seconds) -> (name, seconds)) (Ri_obs.Phase.totals ())

let phase_seconds totals = List.fold_left (fun acc (_, s) -> acc +. s) 0. totals

type span = {
  s_name : string;
  s_layer : string;  (** "figure", "engine" or "export" *)
  s_start : float;
  s_stop : float;
  s_phases : float;  (** seconds of program phases inside the span *)
}

(* Records bench-side spans in memory; the untraced pass runs the same
   unit code with [timed] = false, which only calls through. *)
type recorder = { timed : bool; mutable spans : span list }

let record r ~layer name f =
  if not r.timed then f ()
  else begin
    let p0 = phase_seconds (phase_totals ()) in
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    let p1 = phase_seconds (phase_totals ()) in
    r.spans <-
      { s_name = name; s_layer = layer; s_start = t0; s_stop = t1; s_phases = p1 -. p0 }
      :: r.spans;
    v
  end

type outcome = { digest : string; point : E.Traffic.point option }

let md5 s = Digest.to_hex (Digest.string s)

let run_unit r = function
  | Figures { base; spec; experiments } ->
      let texts =
        List.map
          (fun (e : E.Registry.experiment) ->
            let report =
              record r ~layer:"figure" ("figure." ^ e.id) (fun () -> e.run ~base ~spec)
            in
            record r ~layer:"export" "export" (fun () -> E.Report.to_string report))
          experiments
      in
      { digest = md5 (String.concat "" texts); point = None }
  | Traffic { cfg; opts; qps } ->
      let p =
        record r ~layer:"engine" "traffic.measure" (fun () ->
            E.Traffic.measure ~opts cfg ~qps)
      in
      let json = record r ~layer:"export" "export" (fun () -> E.Traffic.json_of ~opts [ p ]) in
      { digest = md5 json; point = Some p }

(* Simulated message deliveries of one traffic point: the queries'
   messages plus the update waves' messages. *)
let traffic_msgs (p : E.Traffic.point) =
  Float.to_int (Float.round (float_of_int p.q_completed *. p.q_messages_per_query))
  + p.q_update_messages

(* ------------------------------------------------------------------ *)
(* Counter snapshots.                                                  *)

type snapshot = {
  phases : (string * float) list;
  gc_phases : Ri_obs.Gcprof.stat list;
  counters : (string * float) list;  (** Metrics.render lines *)
  cache : Setup_cache.stats;
  gc : Gc.stat;
}

let parse_render text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
               Option.map
                 (fun v -> (String.sub line 0 i, v))
                 (float_of_string_opt
                    (String.sub line (i + 1) (String.length line - i - 1))))

let snapshot () =
  {
    phases = phase_totals ();
    gc_phases = Ri_obs.Gcprof.stats ();
    counters = parse_render (Ri_obs.Metrics.render ());
    cache = Setup_cache.stats ();
    gc = Gc.quick_stat ();
  }

(* A metric family's total: every series of that name, any labels. *)
let family snap name =
  List.fold_left
    (fun acc (key, v) ->
      if key = name || String.starts_with ~prefix:(name ^ "{") key then acc +. v
      else acc)
    0. snap.counters

let assoc0 key l = Option.value ~default:0. (List.assoc_opt key l)

let gc_phase snap phase =
  List.find_opt (fun s -> s.Ri_obs.Gcprof.g_phase = phase) snap.gc_phases

(* ------------------------------------------------------------------ *)
(* The layer split.                                                    *)

(* Program phases that own a layer's self time.  A phase the ledger
   does not know stays in [unattributed]. *)
let phase_layers =
  [
    ("topology", [ "topology" ]);
    ("placement", [ "placement" ]);
    ("ri_build", [ "ri_build" ]);
    ("query", [ "query" ]);
    ("update", [ "update"; "recovery" ]);
  ]

(* Inline cost of the fault-free walk on a traffic workload: a fixed
   batch of Zipf queries drawn from the workload seed, run with
   [Query.run] on trial 0's converged network, outside the timed unit.
   It is the baseline that [engine.overhead_ns_per_delivery] subtracts. *)
let probe_queries = 2000

let inline_ns_per_message cfg ~seed =
  let setup = Trial.build ~purpose:Trial.For_update cfg ~trial:0 in
  let net = setup.Trial.network in
  let n = Ri_p2p.Network.size net in
  let rng = Prng.create seed in
  let zipf = Ri_content.Workload.Zipf.create setup.Trial.universe in
  let batch =
    Array.init probe_queries (fun _ ->
        let origin = Prng.int rng n in
        (origin, Ri_content.Workload.Zipf.query zipf rng ~stop:cfg.Config.stop_condition))
  in
  let t0 = now () in
  let msgs =
    Array.fold_left
      (fun acc (origin, query) ->
        acc
        + Ri_p2p.Query.messages
            (Ri_p2p.Query.run net ~origin ~query ~forwarding:Ri_p2p.Query.Ri_guided))
      0 batch
  in
  (now () -. t0) *. 1e9 /. float_of_int (max 1 msgs)

let ratio num den = if den > 0. then num /. den else 0.

(* Every experiment a figure workload can run, for the per-figure spans. *)
let figure_ids = E.Registry.ids @ [ "faults" ]

(* Every per-layer metric except [trace.overhead_share], which needs the
   untraced reps.

   The phase layers come from [Phase.totals] over the whole unit, the
   span layers from the spans alone.  [unattributed.s] is measured on
   its own: the time inside figure spans that no phase covers, plus the
   time between spans.  The layers therefore sum to [wall] only when
   every phase ran inside a span, belongs to exactly one layer and did
   not nest in another; the parent checks the sum. *)
let layers kind ~seed ~wall ~spans ~(before : snapshot) ~(after : snapshot)
    (o : outcome) =
  let dphase name = assoc0 name after.phases -. assoc0 name before.phases in
  let dm name = family after name -. family before name in
  let dgc phase f =
    let get s = match gc_phase s phase with Some st -> f st | None -> 0. in
    (get after -. get before) /. 1e6
  in
  let span_sum layer f =
    List.fold_left (fun acc s -> if s.s_layer = layer then acc +. f s else acc) 0. spans
  in
  let dur s = s.s_stop -. s.s_start in
  let phase_self =
    List.map
      (fun (layer, phases) ->
        (layer, List.fold_left (fun acc p -> acc +. dphase p) 0. phases))
      phase_layers
  in
  let engine_self = span_sum "engine" (fun s -> dur s -. s.s_phases) in
  let export_self = span_sum "export" dur in
  let drift = dphase "drift" in
  let self = phase_self @ [ ("engine", engine_self); ("export", export_self) ] in
  let unattributed =
    span_sum "figure" (fun s -> dur s -. s.s_phases)
    +. (wall -. List.fold_left (fun acc s -> acc +. dur s) 0. spans)
  in
  let self_of l = List.assoc l self in
  let point_int f = match o.point with Some p -> float_of_int (f p) | None -> 0. in
  let traffic_waves = dm "ri_traffic_waves_total" in
  let update_msgs = dm "ri_update_messages_total" +. point_int (fun p -> p.E.Traffic.q_update_messages) in
  let delivered =
    update_msgs -. dm "ri_fault_update_drops_total" -. dm "ri_fault_update_dead_total"
  in
  let query_msgs =
    dm "ri_query_forwards_total" +. dm "ri_query_returns_total" +. dm "ri_query_results_total"
  in
  let builds = dm "ri_network_builds_total" in
  let deliveries =
    match kind with
    | Figures _ -> 0.
    | Traffic { opts; _ } ->
        let service_ns = Engine.of_seconds (1. /. opts.E.Traffic.o_service_rate) in
        (dm "ri_traffic_service_ns_total" /. float_of_int service_ns)
        +. point_int (fun p -> p.E.Traffic.q_update_messages)
        +. traffic_waves
  in
  let inline_ns =
    match kind with Traffic { cfg; _ } -> inline_ns_per_message cfg ~seed | Figures _ -> 0.
  in
  let ns_per_delivery = ratio (engine_self *. 1e9) deliveries in
  let hit_ratio hits misses =
    let h = float_of_int hits and m = float_of_int misses in
    ratio h (h +. m)
  in
  let c0 = before.cache and c1 = after.cache in
  let figure_s id =
    List.fold_left
      (fun acc s -> if s.s_name = "figure." ^ id then acc +. dur s else acc)
      0. spans
  in
  [
    ("topology.self_s", self_of "topology");
    ("topology.minor_mwords", dgc "topology" (fun s -> s.g_minor_words));
    ("placement.self_s", self_of "placement");
    ("ri_build.self_s", self_of "ri_build");
    ("ri_build.builds", builds);
    ("ri_build.ms_per_build", ratio (self_of "ri_build" *. 1000.) builds);
    ("ri_build.minor_mwords", dgc "ri_build" (fun s -> s.g_minor_words));
    ("ri_build.promoted_mwords", dgc "ri_build" (fun s -> s.g_promoted_words));
    ( "setup_cache.network_hit_ratio",
      hit_ratio
        (c1.network_hits - c0.network_hits)
        (c1.network_misses - c0.network_misses) );
    ( "setup_cache.graph_hit_ratio",
      hit_ratio (c1.graph_hits - c0.graph_hits) (c1.graph_misses - c0.graph_misses) );
    ("query.self_s", self_of "query");
    ("query.messages", query_msgs);
    ("query.ns_per_message", ratio (self_of "query" *. 1e9) query_msgs);
    ("query.minor_mwords", dgc "query" (fun s -> s.g_minor_words));
    ("query.inline_ns_per_message", inline_ns);
    ("update.self_s", self_of "update");
    ("update.drift_s", drift);
    ("update.messages", update_msgs);
    ("update.waves", dm "ri_update_waves_total" +. traffic_waves);
    ( "update.useful_ratio",
      if delivered > 0. then 1. -. (dm "ri_update_insignificant_total" /. delivered) else 1. );
    ("update.wire_mb", dm "ri_update_wire_bytes_total" /. 1e6);
    ("fault.timeouts", dm "ri_fault_timeouts_total");
    ("fault.retries", dm "ri_fault_retries_total");
    ("fault.stale_fallbacks", dm "ri_fault_stale_fallbacks_total");
    ("fault.update_drops", dm "ri_fault_update_drops_total");
    ("engine.self_s", engine_self);
    ("engine.deliveries", deliveries);
    ("engine.ns_per_delivery", ns_per_delivery);
    ( "engine.overhead_ns_per_delivery",
      if deliveries > 0. then ns_per_delivery -. inline_ns else 0. );
    ("engine.queue_peak", point_int (fun p -> p.E.Traffic.q_queue_peak));
    ( "engine.queue_mean",
      match o.point with Some p -> p.E.Traffic.q_queue_mean | None -> 0. );
    ("export.self_s", export_self);
  ]
  @ List.map (fun id -> ("figure." ^ id ^ "_s", figure_s id)) figure_ids
  @ [
      ("runner.trials", dm "ri_runner_trials_total");
      ("runner.units", dm "ri_runner_units_total");
      ("gc.minor_mwords", (after.gc.minor_words -. before.gc.minor_words) /. 1e6);
      ("gc.major_mwords", (after.gc.major_words -. before.gc.major_words) /. 1e6);
      ( "gc.major_collections",
        float_of_int (after.gc.major_collections - before.gc.major_collections) );
      ("unattributed.s", unattributed);
      ("unattributed.share", ratio unattributed wall);
    ]
