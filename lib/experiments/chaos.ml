(** Deterministic chaos checker for the partition & recovery plane.

    Each {e schedule} is a bounded, seeded fault scenario: build a
    small converged tree network, then replay a fixed number of steps
    drawn from the schedule's private PRNG — crash-stops, recoveries,
    partition heals, content moves (announced by corrective waves) and
    probe queries.  After the last step the harness forces full
    quiescence (heal + recover everyone + anti-entropy to a repair-free
    round) and checks the plane's invariants:

    - {b fixpoint}: every RI row equals the row of a fault-free twin
      network that saw the exact same content moves — crash-recovery
      plus anti-entropy must reconverge to the unique fixpoint, not
      merely to something plausible (requires [min_update = 0] and a
      zero distance floor, which the chaos config pins);
    - {b no-cross-cut}: while a partition is active, no query forward
      crosses the severed cut;
    - {b no-resurrection}: a row for a certified-dead peer never
      reappears while the peer stays dead (no wave may launder a
      corpse's stale aggregate back into a repaired index);
    - {b recall}: the post-quiescence query finds at least as many
      results as the fault-free twin (with equal rows and a quiesced
      plan it must find exactly as many).

    Every violation is replayable from its [(seed, schedule)] pair —
    the harness re-derives the whole scenario from those two integers. *)

open Ri_util
open Ri_content
open Ri_core
open Ri_p2p
open Ri_sim

type violation = {
  v_seed : int;
  v_schedule : int;
  v_step : int;  (** step index, or [-1] for the final quiescence checks *)
  v_invariant : string;
  v_detail : string;
}

type outcome = {
  c_schedules : int;
  c_steps : int;  (** steps executed across all schedules *)
  c_queries : int;  (** probe + final queries run *)
  c_violations : violation list;
}

(* The schedule stream is decoupled from the trial stream the network
   build consumes — mirroring [Fault]'s plan stream — so the scenario
   script never perturbs topology, placement or RI construction. *)
let schedule_rng ~seed ~schedule =
  Prng.create ((seed * 0x1000003) lxor (schedule * 0x9e3779b1) lxor 0xc4a05)

let fractions = [| 0.1; 0.2; 0.3; 0.5 |]

(* Exact-fixpoint settings: a tree overlay (unique update paths), no
   significance floor of either kind (every change re-propagates, so
   the fault-free twin's rows are the exact aggregates), and the scheme
   cycling per schedule so all three index kinds face the chaos. *)
let config_for ~nodes ~seed schedule =
  let base = Config.scaled Config.base ~num_nodes:nodes in
  let search =
    match schedule mod 3 with
    | 0 -> Config.Ri Config.cri
    | 1 -> Config.Ri (Config.hri base)
    | _ -> Config.Ri (Config.eri base)
  in
  {
    base with
    Config.topology = Config.Tree;
    search;
    min_update = 0.;
    update_distance_floor = 0.;
    seed;
  }

let spec_for rng =
  {
    Fault.none with
    Fault.partition = fractions.(Prng.int rng (Array.length fractions));
    heal_after = None;
    retries = 2;
    backoff = 0;
  }

(* Deterministic rejection sampling; [-1] when nothing qualifies. *)
let pick rng n ok =
  let tries = ref 0 and found = ref (-1) in
  while !found < 0 && !tries < 64 * n do
    let v = Prng.int rng n in
    incr tries;
    if ok v then found := v
  done;
  !found

let ae_round_cap = 64

let run_schedule ~nodes ~steps ~seed ~sabotage schedule =
  let rng = schedule_rng ~seed ~schedule in
  let cfg = config_for ~nodes ~seed schedule in
  let spec = spec_for rng in
  let trial = schedule in
  (* Two builds of the same trial: [faulty] lives through the schedule,
     [clean] sees only the content moves.  [mutable_placement] gives
     each its own placement arrays (and bypasses the setup cache, so
     the twins never share mutable state). *)
  let faulty = Trial.build ~purpose:Trial.For_update ~mutable_placement:true cfg ~trial in
  let clean = Trial.build ~purpose:Trial.For_update ~mutable_placement:true cfg ~trial in
  let n = Network.size faulty.Trial.network in
  let plan =
    Fault.make spec ~neighbors:(Network.neighbors faulty.Trial.network)
      ~seed:cfg.Config.seed ~trial ~nodes:n ~protect:[]
  in
  let counters = Message.create () in
  let clean_counters = Message.create () in
  let topics = faulty.Trial.query.Workload.topics in
  let images = Hashtbl.create 8 in
  let violations = ref [] in
  let queries = ref 0 in
  let steps_run = ref 0 in
  let violate ~step invariant detail =
    violations :=
      {
        v_seed = seed;
        v_schedule = schedule;
        v_step = step;
        v_invariant = invariant;
        v_detail = detail;
      }
      :: !violations
  in
  let live v = not (Fault.is_dead plan v) in
  let recover_node v =
    let rejoin =
      match Hashtbl.find_opt images v with
      | Some bytes when v land 1 = 1 -> Churn.Stale_state bytes
      | _ -> Churn.Amnesiac
    in
    Churn.recover faulty.Trial.network v ~rejoin ~plan ~counters
  in
  let probe_query ~step =
    let origin = pick rng n live in
    if origin >= 0 then begin
      incr queries;
      let qrng = Prng.create (Prng.int rng 0x3FFFFFFF) in
      (* A sender cannot see the cut, so it may well *attempt* a
         cross-cut forward — the invariant is that every such attempt
         times out (the message is lost in the cut) rather than being
         delivered: cross-cut attempts and cross-cut timeouts must
         balance exactly. *)
      let cross_forwards = ref 0 and cross_timeouts = ref 0 in
      let check = function
        | Query.Forwarded { sender; receiver } ->
            if not (Fault.same_side plan sender receiver) then
              incr cross_forwards
        | Query.Timed_out { sender; receiver; _ } ->
            if not (Fault.same_side plan sender receiver) then
              incr cross_timeouts
        | _ -> ()
      in
      ignore
        (Query.run ~on_event:check ~plan ~rng:qrng faulty.Trial.network
           ~origin ~query:faulty.Trial.query ~forwarding:Query.Ri_guided);
      if !cross_forwards <> !cross_timeouts then
        violate ~step "no-cross-cut"
          (Printf.sprintf
             "%d cross-cut forwards but only %d timed out — %d delivered \
              across an active cut"
             !cross_forwards !cross_timeouts
             (!cross_forwards - !cross_timeouts))
    end
  in
  (* Certified corpses must stay deleted while they stay dead: a wave
     or repair that rewrites the row has laundered stale state. *)
  let check_no_resurrection ~step =
    for u = 0 to n - 1 do
      if live u then
        List.iter
          (fun d ->
            if
              Fault.is_dead plan d
              && Scheme.row (Network.ri faulty.Trial.network u) ~peer:d
                 <> None
            then
              violate ~step "no-resurrection"
                (Printf.sprintf "node %d regrew a row for certified-dead %d"
                   u d))
          (Fault.known_dead_of plan u)
    done
  in
  for step = 0 to steps - 1 do
    incr steps_run;
    (match Prng.int rng 8 with
    | 0 | 1 ->
        (* Crash a live node; persist odd victims' rows first so their
           later rejoin replays a genuinely stale image. *)
        let v = pick rng n live in
        if v >= 0 then begin
          if v land 1 = 1 then
            Hashtbl.replace images v
              (Churn.persist_rows faulty.Trial.network v);
          Churn.crash_stop faulty.Trial.network v ~plan
        end
    | 2 ->
        let v = pick rng n (fun v -> Fault.is_dead plan v) in
        if v >= 0 then recover_node v
    | 3 -> Fault.heal_partition plan
    | 4 | 5 | 6 ->
        let donor =
          pick rng n (fun v ->
              live v && faulty.Trial.placement.Placement.matches.(v) > 0)
        in
        let recipient =
          if donor < 0 then -1 else pick rng n (fun v -> live v && v <> donor)
        in
        if donor >= 0 && recipient >= 0 then begin
          let take =
            min
              faulty.Trial.placement.Placement.matches.(donor)
              (1 + Prng.int rng 3)
          in
          (* The same move in both worlds.  The announcement waves
             differ — the chaos network's run through the plan — but
             the world does not. *)
          let move p = Placement.move p ~topics ~donor ~recipient take in
          let fd, fr = move faulty.Trial.placement in
          let cd, cr = move clean.Trial.placement in
          Update.local_change ~plan faulty.Trial.network ~origin:donor
            ~summary:fd ~counters;
          Update.local_change ~plan faulty.Trial.network ~origin:recipient
            ~summary:fr ~counters;
          Update.local_change clean.Trial.network ~origin:donor ~summary:cd
            ~counters:clean_counters;
          Update.local_change clean.Trial.network ~origin:recipient
            ~summary:cr ~counters:clean_counters
        end
    | _ -> probe_query ~step);
    check_no_resurrection ~step
  done;
  (* Quiescence: heal, bring everyone back, silence the weather, and
     let anti-entropy run dry. *)
  Fault.heal_partition plan;
  Fault.quiesce plan;
  for v = 0 to n - 1 do
    if Fault.is_dead plan v then recover_node v
  done;
  let rounds = ref 0 and last = ref 1 in
  while !last > 0 && !rounds < ae_round_cap do
    last := Update.anti_entropy ~plan faulty.Trial.network ~counters;
    incr rounds
  done;
  if !last > 0 then
    violate ~step:(-1) "fixpoint"
      (Printf.sprintf "anti-entropy still repairing after %d rounds"
         ae_round_cap);
  (* The self-test hook: break one row after the repairs finished, so a
     healthy harness proves it would catch a broken reconciler. *)
  if sabotage then begin
    let u = pick rng n (fun v -> Network.degree faulty.Trial.network v > 0) in
    if u >= 0 then
      match Scheme.peers (Network.ri faulty.Trial.network u) with
      | peer :: _ -> Scheme.remove_row (Network.ri faulty.Trial.network u) ~peer
      | [] -> ()
  end;
  (* Fixpoint: every row of the survivor equals the fault-free twin's,
     peer set included. *)
  for u = 0 to n - 1 do
    let fri = Network.ri faulty.Trial.network u in
    let cri = Network.ri clean.Trial.network u in
    let fp = List.sort compare (Scheme.peers fri) in
    let cp = List.sort compare (Scheme.peers cri) in
    if fp <> cp then
      violate ~step:(-1) "fixpoint"
        (Printf.sprintf "node %d: peer set {%s} != fault-free {%s}" u
           (String.concat "," (List.map string_of_int fp))
           (String.concat "," (List.map string_of_int cp)))
    else
      List.iter
        (fun peer ->
          match (Scheme.row fri ~peer, Scheme.row cri ~peer) with
          | Some f, Some c ->
              let d = Scheme.payload_rel_diff c f in
              if not (d <= 1e-9) then
                violate ~step:(-1) "fixpoint"
                  (Printf.sprintf
                     "node %d row for %d diverges from the fault-free \
                      fixpoint (rel diff %g)"
                     u peer d)
          | _ -> ())
        fp
  done;
  (* Recall: identical rows + a quiesced, all-alive plan must route the
     final query identically to the twin. *)
  let qseed = Prng.int rng 0x3FFFFFFF in
  let origin = Prng.int rng n in
  incr queries;
  let f_found =
    (Query.run ~plan ~rng:(Prng.create qseed) faulty.Trial.network ~origin
       ~query:faulty.Trial.query ~forwarding:Query.Ri_guided)
      .Query.found
  in
  let c_found =
    (Query.run ~rng:(Prng.create qseed) clean.Trial.network ~origin
       ~query:clean.Trial.query ~forwarding:Query.Ri_guided)
      .Query.found
  in
  if f_found < c_found then
    violate ~step:(-1) "recall"
      (Printf.sprintf "found %d results where the fault-free twin found %d"
         f_found c_found);
  (!steps_run, !queries, List.rev !violations)

let run ?(sabotage = false) ?only ~nodes ~schedules ~steps ~seed () =
  if nodes < 2 then invalid_arg "Chaos.run: nodes must be at least 2";
  if schedules < 1 then invalid_arg "Chaos.run: schedules must be positive";
  if steps < 0 then invalid_arg "Chaos.run: steps must be non-negative";
  let ids =
    match only with
    | Some s ->
        if s < 0 then invalid_arg "Chaos.run: schedule ids are non-negative";
        [ s ]
    | None -> List.init schedules (fun i -> i)
  in
  let total_steps = ref 0 and total_queries = ref 0 in
  let violations =
    List.concat_map
      (fun schedule ->
        let s, q, vs = run_schedule ~nodes ~steps ~seed ~sabotage schedule in
        total_steps := !total_steps + s;
        total_queries := !total_queries + q;
        vs)
      ids
  in
  {
    c_schedules = List.length ids;
    c_steps = !total_steps;
    c_queries = !total_queries;
    c_violations = violations;
  }

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json o =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schedules\":%d,\"steps\":%d,\"queries\":%d,\"violations\":["
       o.c_schedules o.c_steps o.c_queries);
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"seed\":%d,\"schedule\":%d,\"step\":%d,\"invariant\":\"%s\",\
            \"detail\":\"%s\"}"
           v.v_seed v.v_schedule v.v_step (json_escape v.v_invariant)
           (json_escape v.v_detail)))
    o.c_violations;
  Buffer.add_string b "]}";
  Buffer.contents b
