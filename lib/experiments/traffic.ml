(** Open-loop traffic sweep — latency quantiles vs offered QPS.

    Not a figure of the paper, which evaluates one synchronous query at
    a time: this is the ROADMAP's heavy-traffic plane.  Queries arrive
    at Poisson times over Zipf-popular topics against a converged
    network and execute {e in flight} on the discrete-event engine —
    per-node mailboxes, service rates, link latency — optionally
    interleaved with update waves.  Each swept QPS point reports
    p50/p95/p99 latency, goodput, queue depths and makespan; the first
    point whose median latency exceeds twice the no-load walk time
    marks the saturation knee.

    The traffic observatory rides along: every completed query's
    end-to-end latency decomposes exactly into queue-wait + service +
    link-transit (with the critical hop — the largest single queue
    wait — attributed to its node), the engine's per-node counters are
    ranked into a top-K hotspot table, and an optional fixed-bin
    logical-time timeline of arrivals/completions/backlog exports as
    byte-identical JSONL through {!Ri_obs.Observatory}. *)

open Ri_util
open Ri_content
open Ri_p2p
open Ri_obs
open Ri_sim

let id = "traffic"

let title = "Open-loop traffic: latency quantiles vs offered QPS"

let paper_claim =
  "Not in the paper (single synchronous queries only).  Below the \
   saturation knee, latency should sit near the no-load walk time; \
   past it, mailbox queues grow and the drain outruns the arrival \
   window, so goodput plateaus while p99 explodes — and the latency \
   decomposition must attribute the growth to queue-wait, not service \
   or link time."

type opts = {
  o_qps : float list;  (** offered arrival rates to sweep, each > 0 *)
  o_duration : float;  (** open-loop arrival window, seconds *)
  o_service_rate : float;  (** per-node service capacity, messages/sec *)
  o_link_latency : float;  (** per-hop propagation delay, milliseconds *)
  o_update_rate : float;  (** interleaved update waves per second, >= 0 *)
  o_zipf : float;  (** topic-popularity skew exponent *)
  o_shift_every : int;  (** rotate the hot set every N draws; 0 = never *)
  o_trials : int;
  o_hotspots : int;  (** top-K hotspot nodes reported per point, >= 0 *)
  o_timeline_bins : int;
      (** bins in the per-trial logical-time timeline (used only while
          {!Ri_obs.Observatory} records), >= 1 *)
}

let default_opts =
  {
    o_qps = [ 50.; 200.; 1000.; 5000. ];
    o_duration = 2.;
    o_service_rate = 20_000.;
    o_link_latency = 0.2;
    o_update_rate = 0.;
    o_zipf = 1.;
    o_shift_every = 0;
    o_trials = 3;
    o_hotspots = 5;
    o_timeline_bins = 50;
  }

(* Per-(qps, trial) simulation result; sketches merge across trials in
   trial order (byte-identical whatever the pool width — merging is
   order-independent), and the observatory accumulators merge
   element-wise the same way. *)
type trial_result = {
  r_arrivals : int;
  r_completed : int;
  r_satisfied : int;
  r_found : int;
  r_messages : int;  (** query messages (forwards + returns + results) *)
  r_update_messages : int;
  r_update_wire_bytes : int;
  r_queue_peak : int;
  r_queue_mean : float;
  r_makespan_s : float;  (** arrival window plus any drain overhang *)
  r_makespan_ns : int;  (** the same, in engine nanoseconds *)
  r_sketch : Sketch.t;  (** per-query latency, milliseconds *)
  r_decomp : Observatory.decomp;  (** exact latency decomposition *)
  r_nodes : Observatory.node_acc;  (** per-node hotspot attribution *)
}

type point = {
  q_qps : float;
  q_offered : float;  (** measured arrival rate, queries/sec *)
  q_arrivals : int;
  q_completed : int;
  q_satisfied : int;
  q_goodput : float;  (** satisfied queries per second of makespan *)
  q_p50_ms : float;
  q_p95_ms : float;
  q_p99_ms : float;
  q_mean_ms : float;
  q_messages_per_query : float;
  q_update_messages : int;
  q_queue_peak : int;
  q_queue_mean : float;
  q_makespan_s : float;
  q_saturated : bool;
      (** median latency exceeded twice the no-load walk time — mailbox
          queueing dominates the walk itself *)
  q_queue_ms : float;  (** mean per-query queue-wait, milliseconds *)
  q_service_ms : float;  (** mean per-query service time, milliseconds *)
  q_link_ms : float;  (** mean per-query link transit, milliseconds *)
  q_queue_share : float;
      (** fraction of end-to-end time spent queueing — the measured
          form of [q_saturated] *)
  q_hotspots : Observatory.hotspot list;
      (** top-K nodes by accumulated queue-wait, merged across trials
          (node ids align across trials of the same generator params) *)
}

(* Observability wiring: the latency distribution and injection totals
   land in the metrics registry next to the per-query cost summaries. *)
let s_latency =
  Metrics.summary ~help:"Open-loop query latency (milliseconds, quantile sketch)."
    "ri_traffic_latency_ms"

let m_arrivals =
  Metrics.counter ~help:"Open-loop queries injected." "ri_traffic_arrivals_total"

let m_traffic_waves =
  Metrics.counter ~help:"Open-loop update waves injected."
    "ri_traffic_waves_total"

let m_queue_ns =
  Metrics.counter
    ~help:"Completed-query latency attributed to mailbox queue wait (ns)."
    "ri_traffic_queue_wait_ns_total"

let m_service_ns =
  Metrics.counter
    ~help:"Completed-query latency attributed to service time (ns)."
    "ri_traffic_service_ns_total"

let m_link_ns =
  Metrics.counter
    ~help:"Completed-query latency attributed to link transit (ns)."
    "ri_traffic_link_ns_total"

let g_hotspot_peak =
  Metrics.gauge
    ~help:"Largest single-mailbox backlog seen by the latest sweep point."
    "ri_traffic_hotspot_peak_depth"

(* Per-node gauges for the latest point's top-K only: the node label
   keeps cardinality at K, not network size. *)
let publish_hotspot_metrics hotspots =
  List.iter
    (fun (h : Observatory.hotspot) ->
      let labels = [ ("node", string_of_int h.Observatory.h_node) ] in
      Metrics.set
        (Metrics.gauge
           ~help:"Queue-wait ns accumulated at a top-K hotspot node."
           ~labels "ri_traffic_node_queue_wait_ns")
        (float_of_int h.Observatory.h_wait_ns);
      Metrics.set
        (Metrics.gauge ~help:"Utilization of a top-K hotspot node." ~labels
           "ri_traffic_node_utilization")
        h.Observatory.h_utilization)
    hotspots

let forwarding_of (cfg : Config.t) =
  match cfg.Config.search with
  | Config.Ri _ -> Query.Ri_guided
  | Config.No_ri -> Query.Random_walk
  | Config.Flooding _ ->
      invalid_arg "Traffic: flooding has no sequential walk to schedule"

let validate_opts opts =
  let check what ?min ?max v =
    match Env.check_float ?min ?max ~what v with
    | Ok v -> v
    | Error msg -> invalid_arg ("Traffic: " ^ msg)
  in
  if opts.o_qps = [] then invalid_arg "Traffic: empty QPS list";
  List.iter (fun q -> ignore (check "qps" ~min:1e-9 q)) opts.o_qps;
  ignore (check "duration" ~min:1e-9 opts.o_duration);
  ignore (check "service-rate" ~min:1e-9 opts.o_service_rate);
  ignore (check "link-latency" ~min:0. opts.o_link_latency);
  ignore (check "update-rate" ~min:0. opts.o_update_rate);
  ignore (check "zipf" ~min:0. opts.o_zipf);
  if opts.o_trials < 1 then invalid_arg "Traffic: trials must be >= 1";
  if opts.o_hotspots < 0 then invalid_arg "Traffic: hotspots must be >= 0";
  if opts.o_timeline_bins < 1 then
    invalid_arg "Traffic: timeline-bins must be >= 1"

(* One (qps, trial) simulation: build the converged setup,
   pre-draw the Poisson arrival schedule from trial-keyed substreams,
   run every query as a Step machine whose messages ride the engine's
   mailboxes, and optionally inject update waves as in-flight message
   streams sharing the same mailboxes.  Single-threaded on one engine:
   the event order is fully determined by (seed, trial, seq).  The
   trial's one log sink takes its events — each query and each wave a
   root span over its messages, through the trial bodies' own hooks —
   and its timeline bins, each only when that kind is on.  The walks
   get no decision sink: interleaved in one trial, their records would
   carry no query key to tell them apart. *)
let simulate (cfg : Config.t) ~opts ~qps ~trial =
  Span.with_trial ~trial (fun sink ->
      let setup = Trial.build ~purpose:Trial.For_update cfg ~trial in
      let net = setup.Trial.network in
      let n = Network.size net in
      let forwarding = forwarding_of cfg in
      let service_ns = Engine.of_seconds (1. /. opts.o_service_rate) in
      let link_ns = Engine.of_seconds (opts.o_link_latency /. 1000.) in
      let eng = Engine.create ~service_ns ~link_ns ~nodes:n () in
      (* Independent substreams per concern, split in a fixed order, so
         e.g. adding update traffic never shifts the query stream. *)
      let arrival_rng = Prng.split setup.Trial.rng in
      let topic_rng = Prng.split setup.Trial.rng in
      let origin_rng = Prng.split setup.Trial.rng in
      let per_query = Prng.split setup.Trial.rng in
      let update_rng = Prng.split setup.Trial.rng in
      let zipf =
        Workload.Zipf.create ~exponent:opts.o_zipf
          ~shift_every:opts.o_shift_every setup.Trial.universe
      in
      let horizon_ns = Engine.of_seconds opts.o_duration in
      let sketch = Sketch.create () in
      let decomp = Observatory.decomp_zero () in
      let acc = Observatory.acc_create n in
      (* Timeline: one fixed-bin ring per trial, flushed into the log
         after the engine drains.  When the kind is off this stays
         None — the only per-event cost is the option branch below. *)
      let timeline =
        if Observatory.is_live sink then
          Some
            (Observatory.Timeline.create ~bins:opts.o_timeline_bins
               ~width_ns:(max 1 (horizon_ns / opts.o_timeline_bins)))
        else None
      in
      let arrivals = ref 0 in
      let completed = ref 0 in
      let satisfied = ref 0 in
      let found = ref 0 in
      let messages = ref 0 in
      let last_done = ref 0 in
      (* Open loop: the arrival schedule is drawn up front and never
         reacts to completions — overload shows up as queue growth and
         drain overhang, not as a slackening arrival rate. *)
      let t = ref 0. in
      let more = ref true in
      while !more do
        t := !t +. Workload.poisson_next arrival_rng ~rate:qps;
        let at = Engine.of_seconds !t in
        if at >= horizon_ns then more := false
        else begin
          incr arrivals;
          let origin = Prng.int origin_rng n in
          let query =
            Workload.Zipf.query zipf topic_rng ~stop:cfg.Config.stop_condition
          in
          let qrng = Prng.split per_query in
          (* Timeline arrival sample: a separate recorder event at the
             arrival instant, scheduled just before the injection so it
             observes the backlog the query itself is about to see.  It
             reads engine state and writes only the timeline, so the
             simulation is bit-identical with recording on or off. *)
          (match timeline with
          | Some tl ->
              Engine.schedule eng ~at (fun () ->
                  Observatory.Timeline.arrival tl ~at
                    ~depth:(Engine.backlog eng))
          | None -> ());
          Engine.inject eng ~at ~dst:origin (fun () ->
              (* The entry delivery itself queued at the origin's
                 mailbox; its wait opens the decomposition. *)
              let entry_wait = Engine.last_wait_ns eng in
              let q_wait = ref entry_wait in
              let deliveries = ref 1 in
              let crit_wait = ref entry_wait in
              let crit_node = ref origin in
              let root, on_event =
                if Span.is_live sink then
                  let root =
                    Span.enter sink ~cat:"traffic" "query"
                      [ ("origin", Span.Int origin) ]
                  in
                  (Some root, Trial.query_hook sink ~cat:"traffic" root)
                else (None, None)
              in
              let st, first =
                Query.Step.start ~rng:qrng ?on_event net ~origin ~query
                  ~forwarding
              in
              let rec dispatch = function
                | None ->
                    let o = Query.Step.finish st in
                    incr completed;
                    if o.Query.satisfied then incr satisfied;
                    found := !found + o.Query.found;
                    messages := !messages + Query.messages o;
                    if Engine.now eng > !last_done then
                      last_done := Engine.now eng;
                    let total_ns = Engine.now eng - at in
                    (* Exact by construction: the chain paid one
                       service slot per delivery, one link crossing per
                       send (the entry inject has none), and the
                       accumulated waits — nothing else.  Tests pin
                       [Observatory.decomp_exact]. *)
                    Observatory.decomp_add decomp ~total_ns
                      ~queue_ns:!q_wait
                      ~service_ns:(!deliveries * service_ns)
                      ~link_ns:((!deliveries - 1) * link_ns);
                    acc.Observatory.a_critical.(!crit_node) <-
                      acc.Observatory.a_critical.(!crit_node) + 1;
                    (match timeline with
                    | Some tl ->
                        Observatory.Timeline.completion tl
                          ~at:(Engine.now eng) ~depth:(Engine.backlog eng)
                    | None -> ());
                    let ms = 1000. *. Engine.to_seconds total_ns in
                    Sketch.add sketch ms;
                    Metrics.observe s_latency ms;
                    (match root with
                    | Some root ->
                        Span.point sink ~cat:"traffic" "complete"
                          [
                            ("origin", Span.Int origin);
                            ("found", Span.Int o.Query.found);
                            ("latency_ns", Span.Int total_ns);
                          ];
                        Span.finish sink root
                          ~args:
                            [
                              ("messages", Span.Int (Query.messages o));
                              ("found", Span.Int o.Query.found);
                              ("satisfied", Span.Bool o.Query.satisfied);
                            ]
                          ()
                    | None -> ())
                | Some (s : Query.Step.send) ->
                    Engine.send eng ~dst:s.Query.Step.dst (fun () ->
                        let w = Engine.last_wait_ns eng in
                        q_wait := !q_wait + w;
                        incr deliveries;
                        if w > !crit_wait then begin
                          crit_wait := w;
                          crit_node := s.Query.Step.dst
                        end;
                        dispatch (Query.Step.deliver st s))
              in
              dispatch first)
        end
      done;
      (* Interleaved update waves: Poisson wave starts at Zipf-popular
         topics, delivered through the same mailboxes via the wave's
         own delivery logic ({!Ri_p2p.Update.deliver_one}); transport —
         link check, budget, message and wire-byte accounting — is
         charged here at send time, as the synchronous wave does. *)
      let ucounters = Message.create () in
      let waves = ref 0 in
      if opts.o_update_rate > 0. && Network.has_ri net then begin
        let budget = Update.default_budget net in
        let topic_totals =
          Array.init cfg.Config.topics (Placement.topic_total setup.Trial.placement)
        in
        let uzipf =
          Workload.Zipf.create ~exponent:opts.o_zipf
            ~shift_every:opts.o_shift_every setup.Trial.universe
        in
        let start_wave origin topic =
          let summary =
            Trial.batch_summary cfg net ~origin ~topic
              ~topic_total:topic_totals.(topic)
          in
          let reached = Bytes.make n '\000' in
          Bytes.set reached origin '\001';
          let wave_id = Network.fresh_wave net in
          let sent = ref 0 in
          (* Recorded, the wave is one root span over its deliveries,
             finished once none is left in flight.  Engine-driven waves
             have no rounds, so the hook's round closer is not needed. *)
          let wave, on_event =
            if Span.is_live sink then
              let root =
                Span.enter sink ~cat:"traffic" "update_wave"
                  [ ("origin", Span.Int origin); ("topic", Span.Int topic) ]
              in
              (Some (root, ref 0), fst (Trial.update_hook sink ~cat:"traffic" root))
            else (None, None)
          in
          (* Counts [landed] more deliveries; nothing is in flight once
             every message sent has landed. *)
          let settle landed =
            match wave with
            | Some (root, n) ->
                n := !n + landed;
                if !n = !sent then
                  Span.finish sink root ~args:[ ("messages", Span.Int !sent) ] ()
            | None -> ()
          in
          let rec send_seed (seed : Update.wave_seed) =
            if
              Network.has_link net seed.Update.sender seed.Update.receiver
              && !sent < budget
            then begin
              incr sent;
              Update.charge ucounters seed;
              Engine.send eng ~dst:seed.Update.receiver (fun () -> deliver seed)
            end
          and deliver seed =
            Update.deliver_one ?on_event net ~reached ~wave_id
              ~forward:send_seed seed;
            settle 1
          in
          List.iter send_seed
            (Update.seeds_for_change net ~at:origin ~except:[]
               ~mutate:(fun () -> Network.set_local_summary net origin summary));
          settle 0
        in
        let t = ref 0. in
        let more = ref true in
        while !more do
          t := !t +. Workload.poisson_next update_rng ~rate:opts.o_update_rate;
          let at = Engine.of_seconds !t in
          if at >= horizon_ns then more := false
          else begin
            incr waves;
            let origin = Prng.int update_rng n in
            let topic = Workload.Zipf.draw uzipf update_rng in
            Engine.inject eng ~at ~dst:origin (fun () ->
                start_wave origin topic)
          end
        done
      end;
      Engine.run eng;
      (* Harvest the engine's per-node attribution into the mergeable
         accumulator (critical-hop counts were folded in during the
         run). *)
      for v = 0 to n - 1 do
        let s = Engine.node_stat eng v in
        acc.Observatory.a_arrivals.(v) <- s.Engine.s_arrivals;
        acc.Observatory.a_completions.(v) <- s.Engine.s_completions;
        acc.Observatory.a_busy_ns.(v) <- s.Engine.s_busy_ns;
        acc.Observatory.a_wait_ns.(v) <- s.Engine.s_wait_ns;
        acc.Observatory.a_peak.(v) <- s.Engine.s_peak
      done;
      (match timeline with
      | Some tl -> Observatory.Timeline.flush tl sink
      | None -> ());
      if Metrics.enabled () then begin
        Metrics.add m_arrivals !arrivals;
        Metrics.add m_traffic_waves !waves;
        Metrics.add m_queue_ns decomp.Observatory.d_queue_ns;
        Metrics.add m_service_ns decomp.Observatory.d_service_ns;
        Metrics.add m_link_ns decomp.Observatory.d_link_ns
      end;
      let makespan_ns = max horizon_ns !last_done in
      {
        r_arrivals = !arrivals;
        r_completed = !completed;
        r_satisfied = !satisfied;
        r_found = !found;
        r_messages = !messages;
        r_update_messages = ucounters.Message.update_messages;
        r_update_wire_bytes = ucounters.Message.update_wire_bytes;
        r_queue_peak = Engine.queue_peak eng;
        r_queue_mean = Engine.queue_mean eng;
        r_makespan_s =
          Float.max opts.o_duration (Engine.to_seconds !last_done);
        r_makespan_ns = makespan_ns;
        r_sketch = sketch;
        r_decomp = decomp;
        r_nodes = acc;
      })

let ms_of_ns ns = 1000. *. Engine.to_seconds ns

let aggregate ~opts ~qps (rs : trial_result array) =
  let sk = Sketch.create () in
  Array.iter (fun r -> Sketch.merge_into ~dst:sk r.r_sketch) rs;
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rs in
  let sumf f = Array.fold_left (fun acc r -> acc +. f r) 0. rs in
  let trials = float_of_int (Array.length rs) in
  let arrivals = sum (fun r -> r.r_arrivals) in
  let completed = sum (fun r -> r.r_completed) in
  let satisfied = sum (fun r -> r.r_satisfied) in
  let makespan = sumf (fun r -> r.r_makespan_s) /. trials in
  let messages_per_query =
    float_of_int (sum (fun r -> r.r_messages)) /. float_of_int (max 1 completed)
  in
  (* Merge the observatory accumulators in trial order: decomposition
     sums are integers, node stats merge element-wise, so the result
     is the same whatever the pool width. *)
  let decomp = Observatory.decomp_zero () in
  Array.iter (fun r -> Observatory.decomp_merge ~into:decomp r.r_decomp) rs;
  let nodes = Observatory.acc_create rs.(0).r_nodes.Observatory.nodes in
  Array.iter (fun r -> Observatory.acc_merge ~into:nodes r.r_nodes) rs;
  let makespan_ns_total = sum (fun r -> r.r_makespan_ns) in
  let hotspots =
    Observatory.hotspots nodes ~makespan_ns:makespan_ns_total
      ~k:opts.o_hotspots
  in
  let per_query ns =
    if completed = 0 then 0. else ms_of_ns ns /. float_of_int completed
  in
  (* No-load reference: a walk of this length with empty mailboxes pays
     one service slot plus one link delay per message.  (Result-pointer
     messages never transit the engine, so this slightly overestimates;
     the factor-2 threshold below absorbs that.)  Saturation = queueing
     delay dominating the walk itself — a criterion independent of the
     arrival-window length, unlike drain overhang, which any short
     window shows even at trivial load. *)
  let no_load_ms =
    messages_per_query
    *. ((1000. /. opts.o_service_rate) +. opts.o_link_latency)
  in
  let p50 = Sketch.quantile sk 0.5 in
  {
    q_qps = qps;
    q_offered = float_of_int arrivals /. (trials *. opts.o_duration);
    q_arrivals = arrivals;
    q_completed = completed;
    q_satisfied = satisfied;
    q_goodput =
      sumf
        (fun r -> float_of_int r.r_satisfied /. Float.max 1e-9 r.r_makespan_s)
      /. trials;
    q_p50_ms = p50;
    q_p95_ms = Sketch.quantile sk 0.95;
    q_p99_ms = Sketch.quantile sk 0.99;
    q_mean_ms =
      (if Sketch.count sk = 0 then 0.
       else Sketch.sum sk /. float_of_int (Sketch.count sk));
    q_messages_per_query = messages_per_query;
    q_update_messages = sum (fun r -> r.r_update_messages);
    q_queue_peak = Array.fold_left (fun m r -> max m r.r_queue_peak) 0 rs;
    q_queue_mean = sumf (fun r -> r.r_queue_mean) /. trials;
    q_makespan_s = makespan;
    q_saturated = no_load_ms > 0. && p50 > 2. *. no_load_ms;
    q_queue_ms = per_query decomp.Observatory.d_queue_ns;
    q_service_ms = per_query decomp.Observatory.d_service_ns;
    q_link_ms = per_query decomp.Observatory.d_link_ns;
    q_queue_share = Observatory.decomp_queue_share decomp;
    q_hotspots = hotspots;
  }

let measure ?(opts = default_opts) (cfg : Config.t) ~qps =
  validate_opts opts;
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Traffic.measure: " ^ msg));
  (* One observability unit per data point, bumped on the submitting
     domain (the Runner's rule), so trial keys never depend on the pool
     width and traces stay byte-identical at any --jobs. *)
  Span.next_unit ();
  Serve.Progress.begin_run
    ~label:(Printf.sprintf "traffic qps=%g" qps)
    ~total:opts.o_trials ();
  let rs =
    Pool.map (Pool.global ()) ~n:opts.o_trials (fun i ->
        simulate cfg ~opts ~qps ~trial:i)
  in
  Serve.Progress.set_trials opts.o_trials;
  let p = aggregate ~opts ~qps rs in
  if Metrics.enabled () then begin
    Metrics.set g_hotspot_peak (float_of_int p.q_queue_peak);
    publish_hotspot_metrics p.q_hotspots
  end;
  p

let knee_of points =
  List.fold_left
    (fun acc p ->
      match acc with
      | Some _ -> acc
      | None -> if p.q_saturated then Some p.q_qps else None)
    None points

let hotspots_json hotspots =
  "["
  ^ String.concat ", " (List.map Observatory.hotspot_json hotspots)
  ^ "]"

let json_of ~opts points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"config\": ";
  Buffer.add_string buf
    (Printf.sprintf
       "{\"duration_s\": %g, \"service_rate\": %g, \"link_latency_ms\": %g, \
        \"update_rate\": %g, \"zipf\": %g, \"trials\": %d, \"hotspots\": %d, \
        \"timeline_bins\": %d}"
       opts.o_duration opts.o_service_rate opts.o_link_latency
       opts.o_update_rate opts.o_zipf opts.o_trials opts.o_hotspots
       opts.o_timeline_bins);
  Buffer.add_string buf ",\n  \"points\": [";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"qps\": %g, \"offered_per_s\": %.2f, \"arrivals\": %d, \
            \"completed\": %d, \"satisfied\": %d, \"goodput_per_s\": %.2f, \
            \"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, \
            \"mean_ms\": %.4f, \"messages_per_query\": %.2f, \
            \"update_messages\": %d, \"queue_peak\": %d, \"queue_mean\": \
            %.3f, \"makespan_s\": %.3f, \"saturated\": %b, \"queue_ms\": \
            %.4f, \"service_ms\": %.4f, \"link_ms\": %.4f, \"queue_share\": \
            %.4f, \"q_hotspots\": %s}"
           p.q_qps p.q_offered p.q_arrivals p.q_completed p.q_satisfied
           p.q_goodput p.q_p50_ms p.q_p95_ms p.q_p99_ms p.q_mean_ms
           p.q_messages_per_query p.q_update_messages p.q_queue_peak
           p.q_queue_mean p.q_makespan_s p.q_saturated p.q_queue_ms
           p.q_service_ms p.q_link_ms p.q_queue_share
           (hotspots_json p.q_hotspots)))
    points;
  Buffer.add_string buf "\n  ],\n  \"knee_qps\": ";
  (match knee_of points with
  | None -> Buffer.add_string buf "null"
  | Some q -> Buffer.add_string buf (Printf.sprintf "%g" q));
  Buffer.add_string buf "\n}";
  Buffer.contents buf

let sweep ?(opts = default_opts) cfg () =
  Serve.Traffic.clear ();
  let _, rev_points =
    List.fold_left
      (fun (done_, acc) qps ->
        let p = measure ~opts cfg ~qps in
        let acc = p :: acc in
        (* Publish the sweep-so-far after every point: a curl of
           /traffic mid-sweep sees a complete, valid JSON document with
           every finished point, its decomposition and hotspots. *)
        Serve.Traffic.publish (json_of ~opts (List.rev acc));
        (done_ + 1, acc))
      (0, []) opts.o_qps
  in
  List.rev rev_points

let report_of points =
  let rows =
    List.map
      (fun p ->
        [
          Report.cell_number ~decimals:0 p.q_qps;
          Report.cell_number ~decimals:1 p.q_offered;
          Report.cell_number ~decimals:0 (float_of_int p.q_completed);
          Report.cell_number ~decimals:1 p.q_goodput;
          Report.cell_number ~decimals:3 p.q_p50_ms;
          Report.cell_number ~decimals:3 p.q_p95_ms;
          Report.cell_number ~decimals:3 p.q_p99_ms;
          Report.cell_number ~decimals:3 p.q_queue_ms;
          Report.cell_number ~decimals:3 p.q_service_ms;
          Report.cell_number ~decimals:3 p.q_link_ms;
          Report.cell_number ~decimals:0 (100. *. p.q_queue_share);
          Report.cell_number ~decimals:1 p.q_messages_per_query;
          Report.cell_number ~decimals:0 (float_of_int p.q_queue_peak);
          Report.cell_number ~decimals:2 p.q_queue_mean;
          Report.cell_number ~decimals:2 p.q_makespan_s;
          Report.cell_text (if p.q_saturated then "yes" else "no");
        ])
      points
  in
  Report.make ~id ~title ~paper_claim
    ~header:
      [
        "QPS";
        "Offered/s";
        "Done";
        "Goodput/s";
        "p50 ms";
        "p95 ms";
        "p99 ms";
        "Q-wait ms";
        "Service ms";
        "Link ms";
        "Q-wait %";
        "Msgs/query";
        "Q peak";
        "Q mean";
        "Makespan s";
        "Saturated";
      ]
    ~rows

(* The hotspot table: every swept point's top-K nodes by accumulated
   queue wait, the congestion ranking Holme's indexed-network result
   predicts for hub nodes. *)
let hotspots_report_of points =
  let rows =
    List.concat_map
      (fun p ->
        List.mapi
          (fun rank (h : Observatory.hotspot) ->
            [
              Report.cell_number ~decimals:0 p.q_qps;
              Report.cell_number ~decimals:0 (float_of_int (rank + 1));
              Report.cell_number ~decimals:0
                (float_of_int h.Observatory.h_node);
              Report.cell_number ~decimals:3
                (ms_of_ns h.Observatory.h_wait_ns);
              Report.cell_number ~decimals:3
                (ms_of_ns h.Observatory.h_busy_ns);
              Report.cell_number ~decimals:3 (100. *. h.Observatory.h_utilization);
              Report.cell_number ~decimals:0
                (float_of_int h.Observatory.h_peak);
              Report.cell_number ~decimals:0
                (float_of_int h.Observatory.h_arrivals);
              Report.cell_number ~decimals:0
                (float_of_int h.Observatory.h_critical);
            ])
          p.q_hotspots)
      points
  in
  Report.make ~id:"traffic-hotspots"
    ~title:"Per-node hotspots: top-K by accumulated queue wait"
    ~paper_claim:
      "Hub congestion, not path length, should dominate indexed-routing \
       latency past the knee: the top nodes' queue-wait grows with load \
       while service stays flat, and most completed queries name one of \
       them as their critical hop."
    ~header:
      [
        "QPS";
        "Rank";
        "Node";
        "Wait ms";
        "Busy ms";
        "Util %";
        "Peak";
        "Arrivals";
        "Critical";
      ]
    ~rows
