open Ri_util

type spec = {
  update_loss : float;
  update_delay : float;
  delay_waves : int;
  crash : float;
  link_flap : float;
  drift : float;
  partition : float;
  heal_after : int option;
  stale_after : int option;
  retries : int;
  backoff : int;
  query_budget : int option;
}

let none =
  {
    update_loss = 0.;
    update_delay = 0.;
    delay_waves = 0;
    crash = 0.;
    link_flap = 0.;
    drift = 0.;
    partition = 0.;
    heal_after = None;
    stale_after = None;
    retries = 0;
    backoff = 0;
    query_budget = None;
  }

let active s =
  s.update_loss > 0. || s.update_delay > 0. || s.crash > 0.
  || s.link_flap > 0. || s.drift > 0. || s.partition > 0.

let validate s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let prob name v =
    if v < 0. || v > 1. || Float.is_nan v then Some (name, v) else None
  in
  match
    List.find_map
      (fun x -> x)
      [
        prob "update_loss" s.update_loss;
        prob "update_delay" s.update_delay;
        prob "crash" s.crash;
        prob "link_flap" s.link_flap;
        prob "drift" s.drift;
        prob "partition" s.partition;
      ]
  with
  | Some (name, v) -> err "%s must be a probability, got %g" name v
  | None ->
      if s.crash >= 1. then err "crash must leave survivors (< 1)"
      else if s.partition >= 1. then
        err "partition must leave both sides populated (< 1)"
      else if s.delay_waves < 0 then err "delay_waves must be non-negative"
      else if s.retries < 0 then err "retries must be non-negative"
      else if s.backoff < 0 then err "backoff must be non-negative"
      else if (match s.stale_after with Some k -> k < 0 | None -> false) then
        err "stale_after must be non-negative"
      else if (match s.heal_after with Some k -> k < 0 | None -> false) then
        err "heal_after must be non-negative"
      else if (match s.query_budget with Some b -> b <= 0 | None -> false)
      then err "query_budget must be positive"
      else Ok ()

let pp ppf s =
  Format.fprintf ppf
    "@[loss=%g delay=%g(+%dw) crash=%g flap=%g drift=%g part=%g%s stale>%s \
     retries=%d backoff=%d budget=%s@]"
    s.update_loss s.update_delay s.delay_waves s.crash s.link_flap s.drift
    s.partition
    (match s.heal_after with
    | Some k -> Printf.sprintf "(heal@%dw)" k
    | None -> "")
    (match s.stale_after with Some k -> string_of_int k | None -> "off")
    s.retries s.backoff
    (match s.query_budget with Some b -> string_of_int b | None -> "inf")

type stats = {
  mutable crashes : int;
  mutable update_drops : int;
  mutable update_dead : int;
  mutable update_delays : int;
  mutable partition_drops : int;
  mutable timeouts : int;
  mutable retries_used : int;
  mutable backoff_total : int;
  mutable fallbacks : int;
  mutable repairs : int;
  mutable recoveries : int;
  mutable budget_stops : int;
}

type t = {
  spec : spec;
  update_rng : Prng.t;  (* drop/delay draws, one or two per message *)
  query_rng : Prng.t;  (* flap draws *)
  drift_rng : Prng.t;  (* donor/recipient picks for content drift *)
  fallback_rng : Prng.t;
      (* stale-row shuffles; separate from the flap stream so a
         fallback and a trust-stale run of the same plan stay paired on
         every timeout draw *)
  partition_rng : Prng.t;  (* cut-side growth; split after the PR 3 five *)
  retry_rng : Prng.t;  (* full-jitter backoff draws, one per timeout *)
  dead : bool array;
  side : bool array;  (* [true] = minority side of the cut *)
  mutable cut_active : bool;
  mutable waves_seen : int;  (* update waves started while the cut holds *)
  mutable quiesced : bool;
      (* recovery measurement mode: probabilistic draws (loss, delay,
         flap) answer [false] without consuming the stream, so the
         reconvergence phase is exact while replay stays deterministic *)
  (* (at, peer) -> updates from [peer] that [at] detectably missed *)
  missed : (int * int, int) Hashtbl.t;
  (* per-node count of distinct open gaps — nonzero means the node's
     own aggregates are computed from suspect inputs *)
  gaps : int array;
  (* (at, dead) death certificates, plus per-node learn order *)
  certs : (int * int, unit) Hashtbl.t;
  learned : (int, int list) Hashtbl.t;  (* reverse learn order *)
  dirty : bool array;
  stats : stats;
}

(* ri_fault_* counters: registered once, bumped from the note_* helpers
   so every surface (CLI, experiments, tests) shares them. *)
let m_crashes =
  Ri_obs.Metrics.counter ~help:"Nodes crash-stopped by fault plans."
    "ri_fault_crashes_total"

let m_drops =
  Ri_obs.Metrics.counter ~help:"Update messages lost in transit."
    "ri_fault_update_drops_total"

let m_dead_updates =
  Ri_obs.Metrics.counter ~help:"Update messages addressed to dead nodes."
    "ri_fault_update_dead_total"

let m_delays =
  Ri_obs.Metrics.counter ~help:"Update messages delayed in transit."
    "ri_fault_update_delays_total"

let m_partition_drops =
  Ri_obs.Metrics.counter
    ~help:"Messages severed by an active network partition."
    "ri_fault_partition_drops_total"

let m_timeouts =
  Ri_obs.Metrics.counter ~help:"Query forwards that timed out."
    "ri_fault_timeouts_total"

let m_retries =
  Ri_obs.Metrics.counter ~help:"Query forwards retried after a timeout."
    "ri_fault_retries_total"

let m_fallbacks =
  Ri_obs.Metrics.counter
    ~help:"Stale RI rows demoted to random (No-RI) ranking."
    "ri_fault_stale_fallbacks_total"

let m_repairs =
  Ri_obs.Metrics.counter
    ~help:"RI rows repaired by crash detection or anti-entropy."
    "ri_fault_repairs_total"

let m_recoveries =
  Ri_obs.Metrics.counter ~help:"Crashed nodes revived by recovery."
    "ri_fault_recoveries_total"

let m_budget_stops =
  Ri_obs.Metrics.counter ~help:"Queries cut off by the fault budget."
    "ri_fault_budget_stops_total"

let spec t = t.spec

let query_budget t =
  match t.spec.query_budget with Some b -> b | None -> max_int

let is_dead t v = t.dead.(v)

let crashed t = t.stats.crashes

let kill t v =
  if not t.dead.(v) then begin
    t.dead.(v) <- true;
    t.stats.crashes <- t.stats.crashes + 1;
    Ri_obs.Metrics.incr m_crashes
  end

let make ?fault_seed ?neighbors s ~seed ~trial ~nodes ~protect =
  (match validate s with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fault.make: " ^ msg));
  if nodes < 1 then invalid_arg "Fault.make: empty network";
  (* The plan's master stream depends only on (seed, trial): it is never
     split from the trial master, so an inert plan leaves every existing
     stream untouched and disabled faults reproduce bit-for-bit.
     [fault_seed] substitutes for the topology seed so a fault schedule
     can be replayed against a different network. *)
  let plan_seed = Option.value fault_seed ~default:seed in
  let master =
    Prng.create ((plan_seed * 0x1000003) lxor (trial * 0x9e3779b1) lxor 0xfa0175)
  in
  let crash_rng = Prng.split master in
  let update_rng = Prng.split master in
  let query_rng = Prng.split master in
  let drift_rng = Prng.split master in
  let fallback_rng = Prng.split master in
  (* New streams are split strictly after the PR 3 five, so plans that
     never partition and never back off draw the exact same sequences as
     before this plane existed. *)
  let partition_rng = Prng.split master in
  let retry_rng = Prng.split master in
  let t =
    {
      spec = s;
      update_rng;
      query_rng;
      drift_rng;
      fallback_rng;
      partition_rng;
      retry_rng;
      dead = Array.make nodes false;
      side = Array.make nodes false;
      cut_active = false;
      waves_seen = 0;
      quiesced = false;
      missed = Hashtbl.create 64;
      gaps = Array.make nodes 0;
      certs = Hashtbl.create 16;
      learned = Hashtbl.create 16;
      dirty = Array.make nodes false;
      stats =
        {
          crashes = 0;
          update_drops = 0;
          update_dead = 0;
          update_delays = 0;
          partition_drops = 0;
          timeouts = 0;
          retries_used = 0;
          backoff_total = 0;
          fallbacks = 0;
          repairs = 0;
          recoveries = 0;
          budget_stops = 0;
        };
    }
  in
  let protected_ v = List.mem v protect in
  let victims =
    min
      (int_of_float (Float.round (s.crash *. float_of_int nodes)))
      (max 0 (nodes - 1 - List.length protect))
  in
  let killed = ref 0 in
  while !killed < victims do
    let v = Prng.int crash_rng nodes in
    if (not (protected_ v)) && not t.dead.(v) then begin
      kill t v;
      incr killed
    end
  done;
  if s.partition > 0. then begin
    match neighbors with
    | None ->
        invalid_arg "Fault.make: a partition spec needs ~neighbors adjacency"
    | Some nbrs ->
        (* A plausible bisection must leave BOTH sides connected.  A
           blob grown by BFS from a random start is itself connected,
           but its complement need not be: on a tree a 10% blob grown
           around an interior hub strands the other 90% in fragments,
           and "a small partition" ends up disconnecting almost
           everyone.  Instead, cut a spanning-tree edge: BFS a spanning
           tree from a root pinned to the majority side (the first
           protected node — the query origin — when there is one), then
           sever the subtree whose size is closest to the target.  Both
           the subtree and its complement are connected in the spanning
           tree, hence in the overlay. *)
        let target =
          max 1
            (min (nodes - 1)
               (int_of_float (Float.round (s.partition *. float_of_int nodes))))
        in
        let root =
          match protect with
          | p :: _ when p >= 0 && p < nodes -> p
          | _ -> Prng.int t.partition_rng nodes
        in
        let { Ri_topology.Graph.order; reached; parent } =
          Ri_topology.Graph.bfs ~root ~n:nodes nbrs
        in
        (* Subtree sizes and protected-node marks, accumulated leaf-up
           (reverse BFS order visits every child before its parent). *)
        let size = Array.make nodes 1 in
        let has_protected =
          Array.init nodes (fun v -> List.mem v protect)
        in
        for i = reached - 1 downto 1 do
          let v = order.(i) in
          let p = parent.(v) in
          size.(p) <- size.(p) + size.(v);
          if has_protected.(v) then has_protected.(p) <- true
        done;
        (* Best cut edge: reachable non-root subtree, no protected node
           inside, size closest to the target (lowest node id breaks
           ties, so the choice is deterministic). *)
        let best = ref (-1) and best_gap = ref max_int in
        for i = 1 to reached - 1 do
          let v = order.(i) in
          if not has_protected.(v) then begin
            let gap = abs (size.(v) - target) in
            if gap < !best_gap then begin
              best := v;
              best_gap := gap
            end
          end
        done;
        if !best >= 0 then begin
          (* Mark the severed subtree as the minority side, in one
             forward scan: a parent comes before its children in BFS
             order.  Unreached nodes (a disconnected overlay) stay on
             the majority side: they were already partitioned from
             everything. *)
          t.side.(!best) <- true;
          for i = 1 to reached - 1 do
            let v = order.(i) in
            if t.side.(parent.(v)) then t.side.(v) <- true
          done;
          t.cut_active <- true
        end
        (* No cuttable subtree (every branch holds a protected node —
           only possible on degenerate overlays): the spec degrades to
           no cut rather than stranding the protected side. *)
  end;
  t

let partitioned t = t.cut_active

let same_side t u v = (not t.cut_active) || t.side.(u) = t.side.(v)

let cut_size t =
  Array.fold_left (fun acc minority -> if minority then acc + 1 else acc) 0 t.side

let heal_partition t = t.cut_active <- false

let note_wave_start t =
  if t.cut_active then begin
    t.waves_seen <- t.waves_seen + 1;
    match t.spec.heal_after with
    | Some k when t.waves_seen > k -> t.cut_active <- false
    | _ -> ()
  end

let quiesce t = t.quiesced <- true

let quiesced t = t.quiesced

let knows_dead t ~at ~dead = Hashtbl.mem t.certs (at, dead)

let learn_dead t ~at ~dead =
  if Hashtbl.mem t.certs (at, dead) then false
  else begin
    Hashtbl.replace t.certs (at, dead) ();
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.learned at) in
    Hashtbl.replace t.learned at (dead :: prev);
    true
  end

let known_dead_of t at =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt t.learned at))

let revive t v =
  if t.dead.(v) then begin
    t.dead.(v) <- false;
    t.stats.recoveries <- t.stats.recoveries + 1;
    Ri_obs.Metrics.incr m_recoveries;
    (* The node is demonstrably alive again: revoke every death
       certificate about it, or reconciliation gossip would keep
       deleting its freshly announced rows. *)
    let stale =
      Hashtbl.fold
        (fun ((_, dead) as k) () acc -> if dead = v then k :: acc else acc)
        t.certs []
    in
    List.iter (Hashtbl.remove t.certs) stale;
    Hashtbl.filter_map_inplace
      (fun _ deads -> Some (List.filter (fun d -> d <> v) deads))
      t.learned
  end

let dirty t v = t.dirty.(v)

let set_dirty t v = t.dirty.(v) <- true

let clear_dirty t v = t.dirty.(v) <- false

let drop_update t =
  (not t.quiesced) && Prng.bernoulli t.update_rng t.spec.update_loss

let delay_update t =
  (not t.quiesced) && Prng.bernoulli t.update_rng t.spec.update_delay

let flap t = (not t.quiesced) && Prng.bernoulli t.query_rng t.spec.link_flap

let shuffle t arr = Prng.shuffle_in_place t.fallback_rng arr

let drift_int t bound = Prng.int t.drift_rng bound

let note_missed t ~at ~peer =
  let k = (at, peer) in
  match Hashtbl.find_opt t.missed k with
  | None ->
      t.gaps.(at) <- t.gaps.(at) + 1;
      Hashtbl.replace t.missed k 1
  | Some n -> Hashtbl.replace t.missed k (n + 1)

let clear_missed t ~at ~peer =
  if Hashtbl.mem t.missed (at, peer) then begin
    Hashtbl.remove t.missed (at, peer);
    t.gaps.(at) <- t.gaps.(at) - 1
  end

(* Is [at]'s export toward [toward] built from suspect inputs?  A gap on
   the (at, toward) row itself does not count: that row is excluded from
   the aggregate sent to [toward]. *)
let tainted t ~at ~toward =
  t.gaps.(at) > if Hashtbl.mem t.missed (at, toward) then 1 else 0

let missed t ~at ~peer =
  Option.value ~default:0 (Hashtbl.find_opt t.missed (at, peer))

let fallback t = t.spec.stale_after <> None

let stale t ~at ~peer =
  match t.spec.stale_after with
  | None -> false
  | Some threshold -> missed t ~at ~peer > threshold

let retries t = t.spec.retries

(* The backoff bound's ceiling, in ticks. *)
let retry_cap = 1 lsl 20

let backoff_ticks t ~attempt =
  if t.spec.backoff = 0 then 0
  else
    (* Full jitter: uniform in [0, min (cap, base * 2^attempt)].  The
       draw comes from the plan's dedicated retry stream so traces stay
       deterministic and no other stream shifts. *)
    let bound = min retry_cap (t.spec.backoff * (1 lsl min attempt 20)) in
    Prng.int t.retry_rng (bound + 1)

let stats t = t.stats

let note_drop t ~dead =
  if dead then begin
    t.stats.update_dead <- t.stats.update_dead + 1;
    Ri_obs.Metrics.incr m_dead_updates
  end
  else begin
    t.stats.update_drops <- t.stats.update_drops + 1;
    Ri_obs.Metrics.incr m_drops
  end

let note_delay t =
  t.stats.update_delays <- t.stats.update_delays + 1;
  Ri_obs.Metrics.incr m_delays

let note_partition_drop t =
  t.stats.partition_drops <- t.stats.partition_drops + 1;
  Ri_obs.Metrics.incr m_partition_drops

let note_timeout t ~attempt =
  t.stats.timeouts <- t.stats.timeouts + 1;
  t.stats.backoff_total <- t.stats.backoff_total + backoff_ticks t ~attempt;
  Ri_obs.Metrics.incr m_timeouts

let note_retry t =
  t.stats.retries_used <- t.stats.retries_used + 1;
  Ri_obs.Metrics.incr m_retries

let note_fallbacks t n =
  if n > 0 then begin
    t.stats.fallbacks <- t.stats.fallbacks + n;
    Ri_obs.Metrics.add m_fallbacks n
  end

let note_repair t =
  t.stats.repairs <- t.stats.repairs + 1;
  Ri_obs.Metrics.incr m_repairs

let note_budget_stop t =
  t.stats.budget_stops <- t.stats.budget_stops + 1;
  Ri_obs.Metrics.incr m_budget_stops
