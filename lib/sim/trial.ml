open Ri_util
open Ri_content
open Ri_topology
open Ri_p2p
open Ri_obs

type setup = {
  network : Network.t;
  universe : Topic.t;
  query : Workload.query;
  origin : int;
  rng : Prng.t;
  placement : Placement.t;
}

let topology_graph (cfg : Config.t) rng =
  match cfg.topology with
  | Config.Tree ->
      Tree_gen.random_labels rng ~n:cfg.num_nodes ~fanout:cfg.fanout
  | Config.Tree_with_cycles { extra_links } ->
      Cycle_gen.tree_with_cycles rng ~n:cfg.num_nodes ~fanout:cfg.fanout
        ~extra_links
  | Config.Power_law_graph ->
      Power_law.generate rng ~n:cfg.num_nodes ~exponent:cfg.outdegree_exponent ()

type purpose = For_query | For_update

let build ?(purpose = For_query) ?perturb ?(mutable_placement = false)
    (cfg : Config.t) ~trial =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Trial.build: " ^ msg));
  (* One master stream per (seed, trial); independent substreams per
     subsystem so changes in one never perturb the others.  The split
     states are fixed once the master is seeded, so a substream left
     unused on a cache hit never perturbs the others. *)
  let master = Prng.create (cfg.seed + (trial * 0x9e3779b)) in
  let topo_rng = Prng.split master in
  let place_rng = Prng.split master in
  let query_rng = Prng.split master in
  let net_rng = Prng.split master in
  let trial_rng = Prng.split master in
  let universe = Topic.make cfg.topics in
  let graph_key =
    {
      Setup_cache.g_topology = cfg.topology;
      g_num_nodes = cfg.num_nodes;
      g_fanout = cfg.fanout;
      g_exponent = cfg.outdegree_exponent;
      g_seed = cfg.seed;
      g_trial = trial;
    }
  in
  let graph =
    Setup_cache.graph graph_key
      (fun () -> Phase.time "topology" (fun () -> topology_graph cfg topo_rng))
  in
  (* The query's stop condition is carried in the config, not drawn from
     the stream, so the cached draw is shared across stop sweeps and the
     query record is rebuilt with the right stop below. *)
  let content_key =
    {
      Setup_cache.c_num_nodes = cfg.num_nodes;
      c_topics = cfg.topics;
      c_query_results = cfg.query_results;
      c_distribution = cfg.distribution;
      c_background = cfg.background_per_node;
      c_seed = cfg.seed;
      c_trial = trial;
    }
  in
  let draw =
    Setup_cache.content content_key
      (fun () ->
        Phase.time "placement" (fun () ->
            let query =
              Workload.random_single query_rng universe ~stop:cfg.stop_condition
            in
            let placement =
              Placement.distribute place_rng ~universe ~n:cfg.num_nodes
                ~query_topics:query.topics ~results:cfg.query_results
                ~distribution:cfg.distribution
                ~background_per_node:cfg.background_per_node ()
            in
            let origin = Prng.int query_rng cfg.num_nodes in
            { Setup_cache.query_topics = query.topics; placement; origin }))
  in
  let query =
    Workload.query ~topics:draw.Setup_cache.query_topics
      ~stop:cfg.stop_condition
  in
  let placement = draw.Setup_cache.placement in
  (* The cached placement is shared across trials and configurations;
     a caller that intends to mutate content (the fault plane's result
     drift) gets a fresh copy of the per-node arrays, bound into the
     network's content closures before any RI is built. *)
  let placement =
    if mutable_placement then
      {
        placement with
        Placement.matches = Array.copy placement.Placement.matches;
        summaries = Array.copy placement.Placement.summaries;
      }
    else placement
  in
  let content = Network.content_of_placement placement in
  let origin = draw.Setup_cache.origin in
  let mode =
    match purpose with
    | For_update -> Network.Converged
    | For_query ->
        (* The paper simulator's construction: RIs built downstream from
           the query originator (Appendix A), under either cycle
           policy — the policies then differ in how the query itself
           handles a revisited node. *)
        Network.Rooted origin
  in
  (* Every trial builds its own network: one flat pass, whose rows a
     node installs when something first reads it. *)
  let network =
    Phase.time "ri_build" (fun () ->
        Network.create ~graph ~content
          ?scheme:(Config.scheme_kind cfg)
          ~compression:(Config.compression cfg)
          ~cycle_policy:cfg.cycle_policy ~min_update:cfg.min_update
          ~update_distance_floor:cfg.update_distance_floor ?perturb
          ~rng:net_rng ~mode ())
  in
  { network; universe; query; origin; rng = trial_rng; placement }

type query_metrics = {
  messages : int;
  forwards : int;
  returns : int;
  results : int;
  found : int;
  satisfied : bool;
  nodes_visited : int;
  bytes : float;
}

(* Per-unit-of-work cost distributions: message and hop summaries live
   next to their counters in Query; the byte-cost ones are observed
   here, where the cost model is applied. *)
let s_query_bytes =
  Metrics.summary ~help:"Simulated wire bytes per query (quantile sketch)."
    "ri_query_wire_bytes"

let s_update_wave_messages =
  Metrics.summary ~help:"Messages per update wave (quantile sketch)."
    "ri_update_wave_messages"

let s_update_wave_bytes =
  Metrics.summary
    ~help:"Simulated wire bytes per update wave (quantile sketch)."
    "ri_update_wave_wire_bytes"

let metrics_of_outcome (cfg : Config.t) (o : Query.outcome) =
  let m =
    {
      messages = Query.messages o;
      forwards = o.counters.Message.query_forwards;
      returns = o.counters.Message.query_returns;
      results = o.counters.Message.result_messages;
      found = o.found;
      satisfied = o.satisfied;
      nodes_visited = o.nodes_visited;
      bytes = Message.bytes_of cfg.bytes o.counters;
    }
  in
  Metrics.observe s_query_bytes m.bytes;
  m

let query_outcome ?on_event ?decide ?plan (cfg : Config.t) setup =
  match cfg.search with
  | Config.Ri _ ->
      Query.run ?on_event ?decide ?plan ~rng:setup.rng setup.network
        ~origin:setup.origin ~query:setup.query ~forwarding:Query.Ri_guided
  | Config.No_ri ->
      Query.run ?on_event ?decide ?plan ~rng:setup.rng setup.network
        ~origin:setup.origin ~query:setup.query ~forwarding:Query.Random_walk
  | Config.Flooding { ttl } ->
      (* Flooding makes no per-neighbor routing decisions — there is
         nothing for a Decision sink to explain, so it is not passed. *)
      Query.flood ?on_event ?plan setup.network ~origin:setup.origin
        ~query:setup.query ?ttl ()

let run_query_on ?on_event ?decide ?plan (cfg : Config.t) setup =
  metrics_of_outcome cfg (query_outcome ?on_event ?decide ?plan cfg setup)

(* The one recorder.  Every p2p event becomes a child span of a root —
   a query, an update wave, the drift, the recovery phase — so the span
   view draws the causal tree and the flat [--trace] view lists the
   children in push order.  Message records carry [cat], fault records
   "fault".  A hook is only built over a live sink, so the disabled path
   passes [None] and the p2p layer keeps its no-op default.  A trial's
   waves run on the domain that runs the trial, so record order is
   deterministic at any pool width. *)
let query_hook sink ~cat root =
  if not (Span.is_live sink) then None
  else
    let child cat name args =
      ignore (Span.instant sink ~parent:root ~cat name args)
    in
    Some
      (function
      | Query.Forwarded { sender; receiver } ->
          child cat "hop"
            [ ("sender", Span.Int sender); ("receiver", Span.Int receiver) ]
      | Query.Returned { sender; receiver } ->
          child cat "backtrack"
            [ ("sender", Span.Int sender); ("receiver", Span.Int receiver) ]
      | Query.Results { at; count } ->
          child cat "results" [ ("at", Span.Int at); ("count", Span.Int count) ]
      | Query.Timed_out { sender; receiver; attempt } ->
          child "fault" "retry"
            [
              ("sender", Span.Int sender);
              ("receiver", Span.Int receiver);
              ("attempt", Span.Int attempt);
            ]
      | Query.Gave_up { sender; receiver } ->
          child "fault" "gave_up"
            [ ("sender", Span.Int sender); ("receiver", Span.Int receiver) ]
      | Query.Reconciled { a; b } ->
          child "fault" "reconcile" [ ("a", Span.Int a); ("b", Span.Int b) ])

(* A round span per message generation parents that generation's
   records (the root parents any that precede the first round).
   Returns the handler plus a closer for the trailing round span: the
   wave just stops, no event marks the end of its last generation. *)
let update_hook sink ~cat root =
  if not (Span.is_live sink) then (None, ignore)
  else begin
    let round = ref None in
    let close_round () =
      Option.iter (fun sp -> Span.finish sink sp ()) !round;
      round := None
    in
    let child cat name args =
      let parent = Option.value !round ~default:root in
      ignore (Span.instant sink ~parent ~cat name args)
    in
    let handler = function
      | Update.Round { index; pending } ->
          close_round ();
          round :=
            Some
              (Span.enter sink ~parent:root ~cat "round"
                 [ ("index", Span.Int index); ("pending", Span.Int pending) ])
      | Update.Delivered { sender; receiver; significant; forwarded } ->
          child cat "deliver"
            [
              ("sender", Span.Int sender);
              ("receiver", Span.Int receiver);
              ("significant", Span.Bool significant);
              ("forwarded", Span.Bool forwarded);
            ]
      | Update.Dropped { sender; receiver; dead } ->
          child "fault" "drop"
            [
              ("sender", Span.Int sender);
              ("receiver", Span.Int receiver);
              ("dead", Span.Bool dead);
            ]
      | Update.Delayed { sender; receiver; rounds } ->
          child "fault" "delay"
            [
              ("sender", Span.Int sender);
              ("receiver", Span.Int receiver);
              ("rounds", Span.Int rounds);
            ]
      | Update.Repaired { u; v } ->
          child "fault" "ae_repair" [ ("u", Span.Int u); ("v", Span.Int v) ]
    in
    (Some handler, close_round)
  end

(* One recorded query walk: a root span over the walk's records, stamped
   with the outcome at finish.  [stop] adds the flat view's stop line. *)
let recorded_query sink ~stop (cfg : Config.t) setup walk =
  let root =
    Span.enter sink ~cat:"query" "query" [ ("origin", Span.Int setup.origin) ]
  in
  let o, m =
    Phase.time "query" (fun () ->
        let o = walk (query_hook sink ~cat:"query" root) in
        (o, metrics_of_outcome cfg o))
  in
  if stop && Span.is_live sink then
    Span.point sink ~cat:"query" "stop"
      [
        ("reason", Span.Str (if m.satisfied then "satisfied" else "exhausted"));
        ("found", Span.Int m.found);
        ("messages", Span.Int m.messages);
        ("nodes_visited", Span.Int m.nodes_visited);
      ];
  Span.finish sink root
    ~args:
      [
        ("messages", Span.Int m.messages);
        ("found", Span.Int m.found);
        ("satisfied", Span.Bool m.satisfied);
      ]
    ();
  (o, m)

(* One recorded update phase: a root span over the records of every
   wave [f] starts, stamped by [args_of] at finish. *)
let recorded_update sink ~cat name args ~args_of f =
  let root = Span.enter sink ~cat name args in
  let on_event, close_round = update_hook sink ~cat:"update" root in
  let r = f on_event in
  close_round ();
  Span.finish sink root ~args:(args_of r) ();
  r

(* One log sink per trial body: the span hooks record its events and
   the walk its decisions, each only when that kind is on. *)
let traced_query (cfg : Config.t) ~trial setup =
  Span.with_trial ~trial (fun sink ->
      snd
        (recorded_query sink ~stop:true cfg setup (fun on_event ->
             query_outcome ?on_event ~decide:sink cfg setup)))

let run_query cfg ~trial =
  traced_query cfg ~trial (build ~purpose:For_query cfg ~trial)

let run_query_perturbed (cfg : Config.t) ~relative_stddev ~kind ~trial =
  traced_query cfg ~trial
    (build ~purpose:For_query ~perturb:(relative_stddev, kind) cfg ~trial)

(* ------------------------------------------------------------------ *)
(* Faulty trials.                                                      *)

type fault_metrics = {
  f_query : query_metrics;
  f_clean_found : int;
  f_recall : float;
  f_drift_messages : int;
  f_repair_messages : int;
  f_messages_per_result : float;
  f_stats : Fault.stats;
}

(* Relocate [drift * QR] results between live nodes, in batches, each
   move announced by corrective update waves from both endpoints — waves
   that run through the fault plan, so some corrections are lost or
   delayed and the surviving RI rows point at emptied subtrees.  This is
   the staleness source: without drift a lossy network merely keeps its
   (still accurate) creation-time indices. *)
let drift_content plan setup ~counters ?on_event () =
  let spec = Fault.spec plan in
  if spec.Fault.drift > 0. then begin
    let p = setup.placement in
    let n = Network.size setup.network in
    let topics = setup.query.Workload.topics in
    let to_move =
      int_of_float
        (Float.round
           (spec.Fault.drift *. float_of_int p.Placement.total_matches))
    in
    (* Deterministic rejection sampling on the plan's drift stream; the
       try bound keeps termination unconditional (e.g. when every
       surviving node is already empty). *)
    let pick_alive keep =
      let tries = ref 0 in
      let found = ref (-1) in
      while !found < 0 && !tries < 64 * n do
        let v = Fault.drift_int plan n in
        incr tries;
        if (not (Fault.is_dead plan v)) && keep v then found := v
      done;
      !found
    in
    let moved = ref 0 in
    let stuck = ref false in
    (* Each move drains its donor completely: a correction that is then
       lost leaves some row upstream advertising documents that are
       entirely gone — the garbage count the fallback policy exists to
       distrust. *)
    while !moved < to_move && not !stuck do
      let donor = pick_alive (fun v -> p.Placement.matches.(v) > 0) in
      let recipient =
        if donor < 0 then -1 else pick_alive (fun v -> v <> donor)
      in
      if donor < 0 || recipient < 0 then stuck := true
      else begin
        let take = min (to_move - !moved) p.Placement.matches.(donor) in
        let donor_summary, recipient_summary =
          Placement.move p ~topics ~donor ~recipient take
        in
        moved := !moved + take;
        Update.local_change ?on_event ~plan setup.network ~origin:donor
          ~summary:donor_summary ~counters;
        Update.local_change ?on_event ~plan setup.network ~origin:recipient
          ~summary:recipient_summary ~counters
      end
    done
  end

(* The drift as one recorded update phase; returns its counters. *)
let recorded_drift sink plan setup =
  let counters = Message.create () in
  Phase.time "drift" (fun () ->
      recorded_update sink ~cat:"update" "drift" []
        ~args_of:(fun () ->
          [ ("messages", Span.Int counters.Message.update_messages) ])
        (fun on_event -> drift_content plan setup ~counters ?on_event ()));
  counters

(* The paired clean baseline — recall's denominator — replays the same
   build, the same content drift and the same query budget as a faulty
   trial with every fault rate at zero: its corrective waves all
   deliver, nothing crashes, no cut severs anything, and its indices
   converge on the drifted world.  Recall against it then measures
   fault damage alone (exactly 1 when every rate is zero), not the
   drift's rearrangement of the content.  The run reads nothing of the
   faulty spec but its drift and budget, so it is computed once per
   distinct (configuration, trial) under the clean spec
   ({!Setup_cache.baseline}). *)
let clean_found_baseline (cfg : Config.t) ~trial =
  let cfg =
    {
      cfg with
      Config.fault =
        {
          Fault.none with
          Fault.drift = cfg.fault.Fault.drift;
          query_budget = cfg.fault.Fault.query_budget;
        };
    }
  in
  Setup_cache.baseline { Setup_cache.b_trial = trial; b_config = cfg }
    (fun () ->
      let setup =
        build ~purpose:For_update
          ~mutable_placement:(cfg.fault.Fault.drift > 0.)
          cfg ~trial
      in
      let plan =
        Fault.make cfg.fault ?fault_seed:cfg.fault_seed
          ~neighbors:(Network.neighbors setup.network)
          ~seed:cfg.seed ~trial ~nodes:cfg.num_nodes ~protect:[ setup.origin ]
      in
      Phase.time "drift" (fun () ->
          drift_content plan setup ~counters:(Message.create ()) ());
      Phase.time "query" (fun () -> (query_outcome ~plan cfg setup).Query.found))

let run_query_faulty (cfg : Config.t) ~trial =
  let spec = cfg.fault in
  if not (Fault.active spec) then
    invalid_arg "Trial.run_query_faulty: inert fault spec (use run_query)";
  (* Faulty trials always run on the converged construction: corrective
     waves must be able to reach the rows that guide routing from the
     origin, which the rooted (downstream-only) build cannot express. *)
  let clean_found = clean_found_baseline cfg ~trial in
  Span.with_trial ~trial (fun sink ->
      let setup =
        build ~purpose:For_update ~mutable_placement:(spec.Fault.drift > 0.)
          cfg ~trial
      in
      let plan =
        Fault.make spec ?fault_seed:cfg.fault_seed
          ~neighbors:(Network.neighbors setup.network)
          ~seed:cfg.seed ~trial ~nodes:cfg.num_nodes ~protect:[ setup.origin ]
      in
      let drift_counters = recorded_drift sink plan setup in
      let outcome, m =
        recorded_query sink ~stop:true cfg setup (fun on_event ->
            query_outcome ?on_event ~decide:sink ~plan cfg setup)
      in
      let repair_messages = outcome.Query.counters.Message.update_messages in
      {
        f_query = m;
        f_clean_found = clean_found;
        f_recall =
          (if clean_found = 0 then 1.
           else float_of_int m.found /. float_of_int clean_found);
        f_drift_messages = drift_counters.Message.update_messages;
        f_repair_messages = repair_messages;
        f_messages_per_result =
          float_of_int (m.messages + repair_messages)
          /. float_of_int (max 1 m.found);
        f_stats = Fault.stats plan;
      })

type parallel_metrics = {
  par_messages : int;
  par_rounds : int;
  par_found : int;
  par_satisfied : bool;
}

let run_query_parallel (cfg : Config.t) ~branch ~trial =
  (match cfg.search with
  | Config.Ri _ -> ()
  | Config.No_ri | Config.Flooding _ ->
      invalid_arg "Trial.run_query_parallel: needs an RI search mechanism");
  let setup = build ~purpose:For_query cfg ~trial in
  Span.with_trial ~trial (fun sink ->
      let root =
        Span.enter sink ~cat:"query" "query_parallel"
          [ ("origin", Span.Int setup.origin); ("branch", Span.Int branch) ]
      in
      let o =
        Phase.time "query" (fun () ->
            Query.run_parallel
              ?on_event:(query_hook sink ~cat:"query" root)
              setup.network ~origin:setup.origin ~query:setup.query ~branch)
      in
      let m =
        {
          par_messages = Message.query_messages o.Query.p_counters;
          par_rounds = o.Query.p_rounds;
          par_found = o.Query.p_found;
          par_satisfied = o.Query.p_satisfied;
        }
      in
      Span.finish sink root
        ~args:
          [
            ("messages", Span.Int m.par_messages);
            ("rounds", Span.Int m.par_rounds);
            ("found", Span.Int m.par_found);
          ]
        ();
      m)

type update_metrics = {
  update_messages : int;
  update_bytes : float;
  update_wire_bytes : int;
}

let batch_summary (cfg : Config.t) net ~origin ~topic ~topic_total =
  let batch = Float.max 1. (Float.round (cfg.update_fraction *. topic_total)) in
  let base = Network.raw_local_summary net origin in
  let by_topic = Array.copy base.Summary.by_topic in
  by_topic.(topic) <- by_topic.(topic) +. batch;
  Summary.make ~total:(base.Summary.total +. batch) ~by_topic

let run_update_on ?on_event ?plan (cfg : Config.t) setup =
  let counters = Message.create () in
  (if Network.has_ri setup.network then begin
     (* One batch of document additions on a random topic at the origin
        ("client I introduces two new documents about languages",
        Section 4.3 — batched per Section 4.3's batching remark). *)
     let topic = Prng.int setup.rng cfg.topics in
     let summary =
       batch_summary cfg setup.network ~origin:setup.origin ~topic
         ~topic_total:(Placement.topic_total setup.placement topic)
     in
     Update.local_change ?on_event ?plan setup.network ~origin:setup.origin
       ~summary ~counters
   end);
  Metrics.observe s_update_wave_messages
    (float_of_int counters.Message.update_messages);
  Metrics.observe s_update_wave_bytes
    (float_of_int counters.Message.update_wire_bytes);
  {
    update_messages = counters.Message.update_messages;
    update_bytes =
      float_of_int (counters.Message.update_messages * cfg.bytes.Message.update_bytes);
    update_wire_bytes = counters.Message.update_wire_bytes;
  }

let run_update (cfg : Config.t) ~trial =
  let setup = build ~purpose:For_update cfg ~trial in
  (* A fault-carrying config exposes the update wave to the same loss /
     delay / crash environment as its queries; the inert spec builds no
     plan at all, keeping the fault-free path bit-for-bit unchanged. *)
  let plan =
    if Fault.active cfg.fault then
      Some
        (Fault.make cfg.fault ?fault_seed:cfg.fault_seed
           ~neighbors:(Network.neighbors setup.network)
           ~seed:cfg.seed ~trial ~nodes:cfg.num_nodes
           ~protect:[ setup.origin ])
    else None
  in
  Span.with_trial ~trial (fun sink ->
      Phase.time "update" (fun () ->
          recorded_update sink ~cat:"update" "update_wave"
            [ ("origin", Span.Int setup.origin) ]
            ~args_of:(fun m ->
              [
                ("messages", Span.Int m.update_messages);
                ("wire_bytes", Span.Int m.update_wire_bytes);
              ])
            (fun on_event -> run_update_on ?on_event ?plan cfg setup)))

(* ------------------------------------------------------------------ *)
(* Recovery trials: damage, dip, heal, reconverge.                     *)

type recovery_metrics = {
  r_dip : query_metrics;
  r_restored : query_metrics;
  r_clean_found : int;
  r_dip_recall : float;
  r_restored_recall : float;
  r_cut_size : int;
  r_recovered : int;
  r_ae_rounds : int;
  r_ae_repairs : int;
  r_recovery_messages : int;
  r_stats : Fault.stats;
}

(* Safety valve only: on trees the taint frontier shrinks every round,
   but a mutual-taint gap cycle on a cyclic overlay could ping-pong
   forever (see [Update.anti_entropy]'s doc). *)
let ae_round_cap = 64

let run_recovery (cfg : Config.t) ~trial =
  let spec = cfg.fault in
  if not (Fault.active spec) then
    invalid_arg "Trial.run_recovery: inert fault spec (use run_query)";
  (match cfg.search with
  | Config.Ri _ -> ()
  | Config.No_ri | Config.Flooding _ ->
      invalid_arg "Trial.run_recovery: needs an RI search mechanism");
  let clean_found = clean_found_baseline cfg ~trial in
  Span.with_trial ~trial (fun sink ->
      let setup =
        build ~purpose:For_update ~mutable_placement:(spec.Fault.drift > 0.)
          cfg ~trial
      in
      let n = Network.size setup.network in
      let plan =
        Fault.make spec ?fault_seed:cfg.fault_seed
          ~neighbors:(Network.neighbors setup.network)
          ~seed:cfg.seed ~trial ~nodes:cfg.num_nodes ~protect:[ setup.origin ]
      in
      let cut = Fault.cut_size plan in
      (* Persist every odd-numbered victim's rows now — before the drift
         — so its later [Stale_state] rejoin replays a genuinely stale
         image; even-numbered victims rejoin amnesiac. *)
      let images = Hashtbl.create 8 in
      for v = 0 to n - 1 do
        if Fault.is_dead plan v && v land 1 = 1 then
          Hashtbl.replace images v (Churn.persist_rows setup.network v)
      done;
      ignore (recorded_drift sink plan setup);
      (* The dip and the restored query add no stop line: the flat view
         of a recovery trial lists messages only. *)
      let query () =
        snd
          (recorded_query sink ~stop:false cfg setup (fun on_event ->
               query_outcome ?on_event ~decide:sink ~plan cfg setup))
      in
      (* The dip: query the damaged network — victims silent, the cut
         severing forwards, stale rows misrouting. *)
      let dip = query () in
      let recovery_counters = Message.create () in
      let recovered = ref 0 in
      let rounds = ref 0 in
      let repairs = ref 0 in
      Phase.time "recovery" (fun () ->
          recorded_update sink ~cat:"fault" "recovery" []
            ~args_of:(fun () ->
              [
                ("recovered", Span.Int !recovered);
                ("ae_rounds", Span.Int !rounds);
                ("ae_repairs", Span.Int !repairs);
              ])
            (fun on_event ->
              (* Heal the cut and stop the weather first: reconvergence is
                 then a property of the repair machinery alone, not of how
                 lucky the re-announcement waves get. *)
              Fault.heal_partition plan;
              Fault.quiesce plan;
              for v = 0 to n - 1 do
                if Fault.is_dead plan v then begin
                  let rejoin =
                    match Hashtbl.find_opt images v with
                    | Some bytes -> Churn.Stale_state bytes
                    | None -> Churn.Amnesiac
                  in
                  Churn.recover ?on_event setup.network v ~rejoin ~plan
                    ~counters:recovery_counters;
                  incr recovered
                end
              done;
              let continue = ref true in
              while !continue && !rounds < ae_round_cap do
                let r =
                  Update.anti_entropy ?on_event ~plan setup.network
                    ~counters:recovery_counters
                in
                incr rounds;
                repairs := !repairs + r;
                if r = 0 then continue := false
              done));
      let restored = query () in
      let recall found =
        if clean_found = 0 then 1.
        else float_of_int found /. float_of_int clean_found
      in
      {
        r_dip = dip;
        r_restored = restored;
        r_clean_found = clean_found;
        r_dip_recall = recall dip.found;
        r_restored_recall = recall restored.found;
        r_cut_size = cut;
        r_recovered = !recovered;
        r_ae_rounds = !rounds;
        r_ae_repairs = !repairs;
        r_recovery_messages = recovery_counters.Message.update_messages;
        r_stats = Fault.stats plan;
      })
