(* Event-driven traffic plane: heap tiebreak order, the mailbox service
   model, the engine against a reference model, zero-latency
   equivalence of the Step machine with the synchronous query and of
   the engine-driven wave with the sequential wave, Poisson/Zipf
   workload sanity, and the determinism contract — traffic traces
   byte-identical at any pool width. *)

open Ri_util
open Ri_content
open Ri_obs
open Ri_p2p
open Ri_sim
module Traffic = Ri_experiments.Traffic

let small = Config.scaled Config.base ~num_nodes:300

let eri_cfg = Config.with_search small (Config.Ri (Config.eri small))

let nori_cfg = Config.with_search small Config.No_ri

(* ------------------------------------------------------------------ *)
(* Engine: heap order and mailbox model.                               *)

let test_heap_tiebreak () =
  let eng = Engine.create ~nodes:1 () in
  let order = ref [] in
  let note i () = order := i :: !order in
  Engine.schedule eng ~at:10 (note 0);
  Engine.schedule eng ~at:5 (note 1);
  Engine.schedule eng ~at:10 (note 2);
  Engine.schedule eng ~at:5 (note 3);
  Engine.schedule eng ~at:0 (note 4);
  Engine.run eng;
  (* Time first; equal times pop in scheduling order. *)
  Alcotest.(check (list int)) "(time, seq) order" [ 4; 1; 3; 0; 2 ]
    (List.rev !order);
  Alcotest.(check int) "clock at last event" 10 (Engine.now eng)

(* 1000 events over 50 distinct times, so most times are shared; every
   third event, while fewer than 3000 exist, schedules a child from
   inside its handler at the current time or up to 3 ns later.  The
   pop order must be exactly a stable sort of the events by time in
   scheduling order. *)
let test_heap_stress_sorted () =
  let eng = Engine.create ~nodes:1 () in
  let rng = Prng.create 7 in
  let scheduled = ref [] and popped = ref [] and next = ref 0 in
  let rec schedule at =
    let i = !next in
    incr next;
    scheduled := (at, i) :: !scheduled;
    Engine.schedule eng ~at (fun () ->
        popped := (Engine.now eng, i) :: !popped;
        if i mod 3 = 0 && !next < 3000 then
          schedule (Engine.now eng + Prng.int rng 4))
  in
  for _ = 1 to 1000 do
    schedule (Prng.int rng 50)
  done;
  Engine.run eng;
  let ts = List.rev_map fst !popped in
  Alcotest.(check int) "all ran" !next (List.length ts);
  Alcotest.(check bool) "children scheduled from handlers" true (!next > 1000);
  Alcotest.(check bool) "nondecreasing" true
    (fst
       (List.fold_left
          (fun (ok, prev) t -> (ok && t >= prev, t))
          (true, 0) ts));
  Alcotest.(check (list (pair int int)))
    "exact (time, scheduling index) order"
    (List.stable_sort
       (fun (a, _) (b, _) -> compare a b)
       (List.rev !scheduled))
    (List.rev !popped)

let test_schedule_past_rejected () =
  let eng = Engine.create ~nodes:1 () in
  Engine.schedule eng ~at:5 (fun () ->
      Alcotest.check_raises "past event"
        (Invalid_argument "Engine.schedule: event in the past") (fun () ->
          Engine.schedule eng ~at:4 ignore);
      Alcotest.check_raises "past injection"
        (Invalid_argument "Engine.inject: event in the past") (fun () ->
          Engine.inject eng ~at:4 ~dst:0 ignore));
  Engine.run eng

let test_mailbox_service () =
  let eng = Engine.create ~service_ns:10 ~nodes:2 () in
  let done_at = ref [] in
  Engine.inject eng ~at:0 ~dst:0 (fun () ->
      done_at := ("a", Engine.now eng) :: !done_at);
  Engine.inject eng ~at:0 ~dst:0 (fun () ->
      done_at := ("b", Engine.now eng) :: !done_at);
  Engine.inject eng ~at:0 ~dst:1 (fun () ->
      done_at := ("c", Engine.now eng) :: !done_at);
  Engine.run eng;
  (* Node 0 services one message at a time (10 ns each); node 1 is an
     independent server. *)
  Alcotest.(check (list (pair string int)))
    "FIFO service, independent nodes"
    [ ("a", 10); ("c", 10); ("b", 20) ]
    (List.rev !done_at);
  Alcotest.(check int) "one message waited" 1 (Engine.queue_peak eng);
  Alcotest.(check int) "three serviced" 3 (Engine.processed eng)

let test_link_latency () =
  let eng = Engine.create ~link_ns:100 ~nodes:2 () in
  let hops = ref [] in
  Engine.inject eng ~at:0 ~dst:0 (fun () ->
      hops := Engine.now eng :: !hops;
      Engine.send eng ~dst:1 (fun () ->
          hops := Engine.now eng :: !hops;
          Engine.send eng ~dst:0 (fun () -> hops := Engine.now eng :: !hops)));
  Engine.run eng;
  Alcotest.(check (list int)) "100 ns per hop" [ 0; 100; 200 ]
    (List.rev !hops)

(* Once a warm-up has grown the event queue, a mailbox delivery
   allocates nothing in the engine: a 10,000-hop inject/send chain
   whose hops all reuse one preallocated handler allocates 0 words per
   delivery. *)
let test_delivery_allocates_nothing () =
  let hops = 10_000 in
  let eng = Engine.create ~service_ns:3 ~link_ns:2 ~nodes:4 () in
  let left = ref 0 in
  let rec hop () =
    if !left > 0 then begin
      decr left;
      Engine.send eng ~dst:(!left land 3) hop
    end
  in
  let chain () =
    left := hops - 1;
    Engine.inject eng ~at:(Engine.now eng) ~dst:0 hop;
    Engine.run eng
  in
  chain ();
  let before = Engine.processed eng in
  let words = Alloc.words_allocated chain in
  let deliveries = Engine.processed eng - before in
  Alcotest.(check int) "one delivery per hop" hops deliveries;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over %d deliveries (%.2f per delivery)" words
       deliveries
       (words /. float_of_int deliveries))
    true
    (words /. float_of_int deliveries < 0.01)

(* ------------------------------------------------------------------ *)
(* Engine against a reference model.                                   *)

(* A script event: when its handler runs it logs (id, now, last wait),
   sends one message per [sends] entry (node, event) and schedules one
   raw event per [timers] entry (delay, event). *)
type act = { id : int; sends : (int * act) list; timers : (int * act) list }

(* A round schedules raw events ([dst = None]) and injections at the
   round's start time plus [at], then runs the engine to empty. *)
type top = { at : int; dst : int option; act : act }

type script = {
  nodes : int;
  service_ns : int;
  link_ns : int;
  rounds : top list list;
}

(* The engine's rules restated over lists: every pending event sits in
   one list scanned for the least (time, seq), and a mailbox is a list,
   oldest first.  An idle node starts service when a message lands; a
   completion runs its handler, then starts the next waiting message. *)
module Model = struct
  type handler = unit -> unit

  type event =
    | Raw of handler
    | Land of int * handler  (** injected *)
    | Hop of int * handler  (** sent over a link *)
    | Done of int * int * handler  (** node, queue wait *)

  type t = {
    service_ns : int;
    link_ns : int;
    mutable now : int;
    mutable seq : int;
    mutable pending : (int * int * event) list;
    boxes : (int * handler) list array;  (** (entered at, handler) *)
    busy : bool array;
    mutable processed : int;
    mutable last_wait : int;
    arrivals : int array;
    completions : int array;
    busy_ns : int array;
    wait_ns : int array;
    depth_sum : int array;
    peak : int array;
    (* The most [Hop] and [Done] events pending at once, so a case can
       show it reached the sizes it claims. *)
    mutable hops : int;
    mutable hops_peak : int;
    mutable dones : int;
    mutable dones_peak : int;
  }

  let create ~service_ns ~link_ns ~nodes =
    let zeros () = Array.make nodes 0 in
    {
      service_ns;
      link_ns;
      now = 0;
      seq = 0;
      pending = [];
      boxes = Array.make nodes [];
      busy = Array.make nodes false;
      processed = 0;
      last_wait = 0;
      arrivals = zeros ();
      completions = zeros ();
      busy_ns = zeros ();
      wait_ns = zeros ();
      depth_sum = zeros ();
      peak = zeros ();
      hops = 0;
      hops_peak = 0;
      dones = 0;
      dones_peak = 0;
    }

  let add m time event =
    m.pending <- (time, m.seq, event) :: m.pending;
    m.seq <- m.seq + 1;
    match event with
    | Hop _ ->
        m.hops <- m.hops + 1;
        m.hops_peak <- max m.hops_peak m.hops
    | Done _ ->
        m.dones <- m.dones + 1;
        m.dones_peak <- max m.dones_peak m.dones
    | Raw _ | Land _ -> ()

  let arrive m dst run =
    m.arrivals.(dst) <- m.arrivals.(dst) + 1;
    let depth = List.length m.boxes.(dst) in
    m.depth_sum.(dst) <- m.depth_sum.(dst) + depth;
    if m.busy.(dst) then begin
      m.boxes.(dst) <- m.boxes.(dst) @ [ (m.now, run) ];
      m.peak.(dst) <- max m.peak.(dst) (depth + 1)
    end
    else begin
      m.busy.(dst) <- true;
      add m (m.now + m.service_ns) (Done (dst, 0, run))
    end

  let complete m dst wait run =
    m.processed <- m.processed + 1;
    m.completions.(dst) <- m.completions.(dst) + 1;
    m.busy_ns.(dst) <- m.busy_ns.(dst) + m.service_ns;
    m.wait_ns.(dst) <- m.wait_ns.(dst) + wait;
    m.last_wait <- wait;
    run ();
    match m.boxes.(dst) with
    | [] -> m.busy.(dst) <- false
    | (entered, next) :: rest ->
        m.boxes.(dst) <- rest;
        add m (m.now + m.service_ns) (Done (dst, m.now - entered, next))

  let send m dst run =
    if m.link_ns = 0 then arrive m dst run
    else add m (m.now + m.link_ns) (Hop (dst, run))

  let rec run m =
    match m.pending with
    | [] -> ()
    | first :: _ ->
        let time, seq, event =
          List.fold_left
            (fun ((t, s, _) as best) ((t', s', _) as e) ->
              if t' < t || (t' = t && s' < s) then e else best)
            first m.pending
        in
        m.pending <- List.filter (fun (_, s, _) -> s <> seq) m.pending;
        m.now <- time;
        (match event with
        | Raw h -> h ()
        | Land (dst, h) -> arrive m dst h
        | Hop (dst, h) ->
            m.hops <- m.hops - 1;
            arrive m dst h
        | Done (dst, wait, h) ->
            m.dones <- m.dones - 1;
            complete m dst wait h);
        run m
end

(* One implementation's entry points, and its state rendered as text
   after a round: processed, peak, mean (in hex, so exactly), backlog,
   clock and one line per node. *)
type ops = {
  now : unit -> int;
  last_wait : unit -> int;
  schedule : int -> (unit -> unit) -> unit;
  inject : int -> int -> (unit -> unit) -> unit;
  send : int -> (unit -> unit) -> unit;
  run : unit -> unit;
  state : unit -> string list;
}

let state_lines ~processed ~peak ~mean ~backlog ~now nodes =
  Printf.sprintf "processed %d peak %d mean %h backlog %d now %d" processed
    peak mean backlog now
  :: List.mapi
       (fun v (a, c, b, w, d, p) ->
         Printf.sprintf
           "node %d: arrivals %d completions %d busy %d wait %d depth %d peak \
            %d"
           v a c b w d p)
       nodes

let engine_ops eng =
  {
    now = (fun () -> Engine.now eng);
    last_wait = (fun () -> Engine.last_wait_ns eng);
    schedule = (fun at h -> Engine.schedule eng ~at h);
    inject = (fun at dst h -> Engine.inject eng ~at ~dst h);
    send = (fun dst h -> Engine.send eng ~dst h);
    run = (fun () -> Engine.run eng);
    state =
      (fun () ->
        state_lines ~processed:(Engine.processed eng)
          ~peak:(Engine.queue_peak eng) ~mean:(Engine.queue_mean eng)
          ~backlog:(Engine.backlog eng) ~now:(Engine.now eng)
          (List.init (Engine.nodes eng) (fun v ->
               let s = Engine.node_stat eng v in
               Engine.
                 ( s.s_arrivals,
                   s.s_completions,
                   s.s_busy_ns,
                   s.s_wait_ns,
                   s.s_depth_sum,
                   s.s_peak ))));
  }

let model_ops (m : Model.t) =
  let sum a = Array.fold_left ( + ) 0 a in
  {
    now = (fun () -> m.now);
    last_wait = (fun () -> m.last_wait);
    schedule = (fun at h -> Model.add m at (Model.Raw h));
    inject = (fun at dst h -> Model.add m at (Model.Land (dst, h)));
    send = Model.send m;
    run = (fun () -> Model.run m);
    state =
      (fun () ->
        let arrivals = sum m.arrivals in
        state_lines ~processed:m.processed
          ~peak:(Array.fold_left max 0 m.peak)
          ~mean:
            (if arrivals = 0 then 0.
             else float_of_int (sum m.depth_sum) /. float_of_int arrivals)
          ~backlog:(Array.fold_left (fun n b -> n + List.length b) 0 m.boxes)
          ~now:m.now
          (List.init (Array.length m.boxes) (fun v ->
               ( m.arrivals.(v),
                 m.completions.(v),
                 m.busy_ns.(v),
                 m.wait_ns.(v),
                 m.depth_sum.(v),
                 m.peak.(v) ))));
  }

(* Plays [script] on [ops]: per round, the run order as "id @now wait"
   lines followed by the state lines. *)
let play ops script =
  let log = ref [] in
  let rec handler act () =
    log :=
      Printf.sprintf "event %d @%d wait %d" act.id (ops.now ())
        (ops.last_wait ())
      :: !log;
    List.iter (fun (dst, a) -> ops.send dst (handler a)) act.sends;
    List.iter
      (fun (delay, a) -> ops.schedule (ops.now () + delay) (handler a))
      act.timers
  in
  List.concat_map
    (fun round ->
      let start = ops.now () in
      List.iter
        (fun top ->
          match top.dst with
          | None -> ops.schedule (start + top.at) (handler top.act)
          | Some dst -> ops.inject (start + top.at) dst (handler top.act))
        round;
      ops.run ();
      let order = List.rev !log in
      log := [];
      ("round" :: order) @ ops.state ())
    script.rounds

(* Gives every event of the script its own id. *)
let number script =
  let next = ref 0 in
  let rec go a =
    let id = !next in
    incr next;
    let sends = List.map (fun (d, a) -> (d, go a)) a.sends in
    let timers = List.map (fun (d, a) -> (d, go a)) a.timers in
    { id; sends; timers }
  in
  {
    script with
    rounds =
      List.map (List.map (fun t -> { t with act = go t.act })) script.rounds;
  }

(* The engine's and the model's lines for [script], the model itself,
   and the first line where they differ, if any. *)
let against_model script =
  let eng =
    Engine.create ~service_ns:script.service_ns ~link_ns:script.link_ns
      ~nodes:script.nodes ()
  in
  let m =
    Model.create ~service_ns:script.service_ns ~link_ns:script.link_ns
      ~nodes:script.nodes
  in
  let got = play (engine_ops eng) script and want = play (model_ops m) script in
  let rec first_diff i = function
    | g :: gs, w :: ws ->
        if g = w then first_diff (i + 1) (gs, ws)
        else Some (Printf.sprintf "line %d: engine %S, model %S" i g w)
    | [], [] -> None
    | g :: _, [] -> Some (Printf.sprintf "line %d: engine %S, model ends" i g)
    | [], w :: _ -> Some (Printf.sprintf "line %d: engine ends, model %S" i w)
  in
  (m, first_diff 0 (got, want))

let rec show_act a =
  let part sep (k, a) = Printf.sprintf "%s%d %s" sep k (show_act a) in
  Printf.sprintf "(%d%s)" a.id
    (String.concat ""
       (List.map (part " ->") a.sends @ List.map (part " +") a.timers))

let show_script s =
  Printf.sprintf "nodes %d service %d link %d: %s" s.nodes s.service_ns
    s.link_ns
    (String.concat " | "
       (List.map
          (fun round ->
            String.concat " "
              (List.map
                 (fun t ->
                   Printf.sprintf "%s@%d%s"
                     (match t.dst with
                     | None -> "raw"
                     | Some d -> Printf.sprintf "inject %d" d)
                     t.at (show_act t.act))
                 round))
          s.rounds))

(* 1-5 nodes and delays of 0-4 ns, so equal times are common and
   [link_ns = 0] lands a sent message at once; raw events and
   injections at 0-20 ns into each of one or two rounds; handlers send
   0-2 messages and sometimes schedule a raw event 0-4 ns ahead, three
   levels deep. *)
let gen_script =
  let open QCheck.Gen in
  let* nodes = int_range 1 5 in
  let* service_ns = int_range 0 4 in
  let* link_ns = int_range 0 4 in
  let rec act depth =
    if depth = 0 then return { id = 0; sends = []; timers = [] }
    else
      let* sends =
        list_size (int_range 0 2)
          (pair (int_range 0 (nodes - 1)) (act (depth - 1)))
      in
      let+ timers =
        frequency
          [
            (3, return []);
            (1, map (fun t -> [ t ]) (pair (int_range 0 4) (act (depth - 1))));
          ]
      in
      { id = 0; sends; timers }
  in
  let top =
    let+ at = int_range 0 20
    and+ dst = opt (int_range 0 (nodes - 1))
    and+ act = act 3 in
    { at; dst; act }
  in
  let+ rounds = list_size (int_range 1 2) (list_size (int_range 0 20) top) in
  number { nodes; service_ns; link_ns; rounds }

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine runs random scripts as the reference model"
    ~count:500
    (QCheck.make ~print:show_script gen_script)
    (fun script ->
      match against_model script with
      | _, None -> true
      | _, Some diff -> QCheck.Test.fail_reportf "%s" diff)

(* Bursts far beyond the 64 events the engine's delay streams first
   hold: a 100-hop chain first moves both streams' heads past their
   first slots, then 2 messages land on each of 600 nodes at once, and
   each relays twice.  Over 256 completions and 256 link crossings are
   then pending at once. *)
let test_engine_matches_model_bursts () =
  let nodes = 600 in
  let leaf = { id = 0; sends = []; timers = [] } in
  let rec chain k =
    if k = 0 then leaf
    else { leaf with sends = [ (k mod nodes, chain (k - 1)) ] }
  in
  let relay j =
    let next k rest = { leaf with sends = [ ((j + k) mod nodes, rest) ] } in
    next 1 (next 2 leaf)
  in
  let script =
    number
      {
        nodes;
        service_ns = 3;
        link_ns = 2;
        rounds =
          [
            [ { at = 0; dst = Some 0; act = chain 100 } ];
            List.init (2 * nodes) (fun j ->
                { at = 1; dst = Some (j mod nodes); act = relay j });
          ];
      }
  in
  let m, diff = against_model script in
  Alcotest.(check (option string)) "engine = model" None diff;
  Alcotest.(check bool)
    (Printf.sprintf "%d link crossings pending at once" m.Model.hops_peak)
    true (m.Model.hops_peak > 256);
  Alcotest.(check bool)
    (Printf.sprintf "%d completions pending at once" m.Model.dones_peak)
    true (m.Model.dones_peak > 256)

(* A query's state is sized by its walk, not by the network: one
   [Query.Step.start] on a 10,000-node ERI tree allocates at most n/8
   words, minor and direct-major together. *)
let test_step_start_allocation () =
  let n = 10_000 in
  let base = Config.scaled Config.base ~num_nodes:n in
  let cfg = Config.with_search base (Config.Ri (Config.eri base)) in
  let setup = Trial.build ~purpose:Trial.For_update cfg ~trial:0 in
  let start () =
    ignore
      (Query.Step.start setup.Trial.network ~origin:setup.Trial.origin
         ~query:setup.Trial.query ~forwarding:Query.Ri_guided)
  in
  start ();
  let words = Alloc.words_allocated start in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d nodes" words n)
    true
    (words <= float_of_int (n / 8))

(* ------------------------------------------------------------------ *)
(* Zero latency: the engine replays the synchronous executions.        *)

let query_event_str = function
  | Query.Forwarded { sender; receiver } ->
      Printf.sprintf "fwd %d->%d" sender receiver
  | Query.Returned { sender; receiver } ->
      Printf.sprintf "ret %d->%d" sender receiver
  | Query.Results { at; count } -> Printf.sprintf "res %d:%d" at count
  | Query.Timed_out _ -> "timeout"
  | Query.Gave_up _ -> "gave_up"
  | Query.Reconciled _ -> "reconciled"

let run_query_sync setup forwarding rng =
  let events = ref [] in
  let o =
    Query.run ~rng
      ~on_event:(fun e -> events := query_event_str e :: !events)
      setup.Trial.network ~origin:setup.Trial.origin ~query:setup.Trial.query
      ~forwarding
  in
  (o, List.rev !events)

let run_query_engine setup forwarding rng =
  let events = ref [] in
  let net = setup.Trial.network in
  let eng = Engine.create ~nodes:(Network.size net) () in
  let result = ref None in
  Engine.inject eng ~at:0 ~dst:setup.Trial.origin (fun () ->
      let st, first =
        Query.Step.start ~rng
          ~on_event:(fun e -> events := query_event_str e :: !events)
          net ~origin:setup.Trial.origin ~query:setup.Trial.query ~forwarding
      in
      let rec dispatch = function
        | None -> result := Some (Query.Step.finish st)
        | Some (s : Query.Step.send) ->
            Engine.send eng ~dst:s.Query.Step.dst (fun () ->
                dispatch (Query.Step.deliver st s))
      in
      dispatch first);
  Engine.run eng;
  (Option.get !result, List.rev !events)

let check_query_equiv cfg forwarding trial =
  let rng_seed = Prng.create (1000 + trial) in
  let s1 = Trial.build ~purpose:Trial.For_update cfg ~trial in
  let o1, e1 = run_query_sync s1 forwarding (Prng.copy rng_seed) in
  let s2 = Trial.build ~purpose:Trial.For_update cfg ~trial in
  let o2, e2 = run_query_engine s2 forwarding (Prng.copy rng_seed) in
  Alcotest.(check (list string)) "same events in the same order" e1 e2;
  Alcotest.(check int) "found" o1.Query.found o2.Query.found;
  Alcotest.(check bool) "satisfied" o1.Query.satisfied o2.Query.satisfied;
  Alcotest.(check int) "nodes visited" o1.Query.nodes_visited
    o2.Query.nodes_visited;
  Alcotest.(check int) "messages" (Query.messages o1) (Query.messages o2)

let test_step_matches_run_ri () =
  for trial = 0 to 3 do
    check_query_equiv eri_cfg Query.Ri_guided trial
  done

let test_step_matches_run_random_walk () =
  for trial = 0 to 3 do
    check_query_equiv nori_cfg Query.Random_walk trial
  done

(* Engine-driven wave vs the sequential wave: same local change on two
   identical builds of the same trial must deliver the same messages in
   the same order and charge the same counters. *)
let delivered_str = function
  | Update.Delivered { sender; receiver; significant; forwarded } ->
      Some
        (Printf.sprintf "%d->%d sig=%b fwd=%b" sender receiver significant
           forwarded)
  | Update.Dropped _ | Update.Delayed _ | Update.Round _ | Update.Repaired _
    ->
      None

let bumped_summary setup =
  let base =
    Network.raw_local_summary setup.Trial.network setup.Trial.origin
  in
  let by_topic = Array.copy base.Summary.by_topic in
  by_topic.(0) <- by_topic.(0) +. 5.;
  Summary.make ~total:(base.Summary.total +. 5.) ~by_topic

let test_engine_wave_matches_sync () =
  for trial = 0 to 2 do
    let s1 = Trial.build ~purpose:Trial.For_update eri_cfg ~trial in
    let events1 = ref [] in
    let counters1 = Message.create () in
    Update.local_change
      ~on_event:(fun e -> events1 := e :: !events1)
      s1.Trial.network ~origin:s1.Trial.origin ~summary:(bumped_summary s1)
      ~counters:counters1;
    let s2 = Trial.build ~purpose:Trial.For_update eri_cfg ~trial in
    let net = s2.Trial.network in
    let n = Network.size net in
    let origin = s2.Trial.origin in
    let events2 = ref [] in
    let counters2 = Message.create () in
    let eng = Engine.create ~nodes:n () in
    let budget =
      let d = ref 0 in
      for v = 0 to n - 1 do
        d := !d + Network.degree net v
      done;
      20 * (n + !d)
    in
    let reached = Bytes.make n '\000' in
    Bytes.set reached origin '\001';
    let wave_id = Network.fresh_wave net in
    let sent = ref 0 in
    let rec send_seed (seed : Update.wave_seed) =
      if
        Network.has_link net seed.Update.sender seed.Update.receiver
        && !sent < budget
      then begin
        incr sent;
        Update.charge counters2 seed;
        Engine.send eng ~dst:seed.Update.receiver (fun () ->
            Update.deliver_one
              ~on_event:(fun e -> events2 := e :: !events2)
              net ~reached ~wave_id ~forward:send_seed seed)
      end
    in
    let summary = bumped_summary s2 in
    Engine.inject eng ~at:0 ~dst:origin (fun () ->
        List.iter send_seed
          (Update.seeds_for_change net ~at:origin ~except:[]
             ~mutate:(fun () -> Network.set_local_summary net origin summary)));
    Engine.run eng;
    let deliveries evs = List.rev !evs |> List.filter_map delivered_str in
    Alcotest.(check (list string))
      "same deliveries in the same order" (deliveries events1)
      (deliveries events2);
    Alcotest.(check int) "same message count"
      counters1.Message.update_messages counters2.Message.update_messages;
    Alcotest.(check int) "same wire bytes" counters1.Message.update_wire_bytes
      counters2.Message.update_wire_bytes;
    Alcotest.(check bool) "wave went somewhere" true
      (counters1.Message.update_messages > 0)
  done

(* ------------------------------------------------------------------ *)
(* Workload: Poisson gaps and Zipf popularity.                         *)

let test_poisson_mean () =
  let rng = Prng.create 11 in
  let rate = 5. in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let gap = Workload.poisson_next rng ~rate in
    Alcotest.(check bool) "gap positive" true (gap > 0.);
    sum := !sum +. gap
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/rate" true
    (Float.abs (mean -. (1. /. rate)) < 0.01)

let test_poisson_rejects_bad_rate () =
  let rng = Prng.create 1 in
  List.iter
    (fun rate ->
      match Workload.poisson_next rng ~rate with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "rate %g accepted" rate)
    [ 0.; -1.; Float.nan ]

let test_zipf_pmf () =
  let universe = Topic.make 10 in
  let z = Workload.Zipf.create ~exponent:1. universe in
  let pmf = Workload.Zipf.pmf z in
  Alcotest.(check int) "full support" 10 (Array.length pmf);
  Alcotest.(check (float 1e-9)) "normalized" 1.
    (Array.fold_left ( +. ) 0. pmf);
  Alcotest.(check (float 1e-9)) "rank 0 twice rank 1" 2.
    (pmf.(0) /. pmf.(1));
  let u = Workload.Zipf.pmf (Workload.Zipf.create ~exponent:0. universe) in
  Alcotest.(check (float 1e-9)) "exponent 0 is uniform" 0.1 u.(3)

let test_zipf_draw_frequencies () =
  let universe = Topic.make 10 in
  let z = Workload.Zipf.create ~exponent:1. universe in
  let pmf = Workload.Zipf.pmf z in
  let rng = Prng.create 23 in
  let n = 50_000 in
  let counts = Array.make 10 0 in
  for _ = 1 to n do
    let t = Workload.Zipf.draw z rng in
    counts.(t) <- counts.(t) + 1
  done;
  Alcotest.(check int) "draw counter" n (Workload.Zipf.draws z);
  Array.iteri
    (fun i c ->
      let observed = float_of_int c /. float_of_int n in
      if Float.abs (observed -. pmf.(i)) > 0.015 then
        Alcotest.failf "rank %d: observed %.4f vs pmf %.4f" i observed pmf.(i))
    counts

let test_zipf_shift () =
  let universe = Topic.make 10 in
  let z = Workload.Zipf.create ~exponent:1. ~shift_every:100 universe in
  Alcotest.(check int) "rank 0 maps to topic 0" 0
    (Workload.Zipf.topic_of_rank z 0);
  let rng = Prng.create 3 in
  for _ = 1 to 250 do
    ignore (Workload.Zipf.draw z rng)
  done;
  (* 250 draws / shift_every 100 = 2 rotations. *)
  Alcotest.(check int) "hot rank rotated" 2 (Workload.Zipf.topic_of_rank z 0);
  Alcotest.(check int) "wraps modulo the universe" 1
    (Workload.Zipf.topic_of_rank z 9)

let test_zipf_rejects_bad_args () =
  let universe = Topic.make 5 in
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad Zipf argument accepted")
    [
      (fun () -> Workload.Zipf.create ~exponent:(-1.) universe);
      (fun () -> Workload.Zipf.create ~exponent:Float.nan universe);
      (fun () -> Workload.Zipf.create ~shift_every:(-1) universe);
    ]

(* ------------------------------------------------------------------ *)
(* Traffic driver: determinism and option validation.                  *)

let fast_opts =
  {
    Traffic.default_opts with
    Traffic.o_qps = [ 200. ];
    o_duration = 0.1;
    o_service_rate = 5000.;
    o_link_latency = 0.1;
    o_update_rate = 20.;
    o_trials = 3;
  }

let test_simulate_deterministic () =
  let a = Traffic.simulate eri_cfg ~opts:fast_opts ~qps:200. ~trial:0 in
  let b = Traffic.simulate eri_cfg ~opts:fast_opts ~qps:200. ~trial:0 in
  Alcotest.(check int) "arrivals" a.Traffic.r_arrivals b.Traffic.r_arrivals;
  Alcotest.(check int) "completed" a.Traffic.r_completed
    b.Traffic.r_completed;
  Alcotest.(check int) "messages" a.Traffic.r_messages b.Traffic.r_messages;
  Alcotest.(check int) "update messages" a.Traffic.r_update_messages
    b.Traffic.r_update_messages;
  Alcotest.(check int) "queue peak" a.Traffic.r_queue_peak
    b.Traffic.r_queue_peak;
  Alcotest.(check (float 0.)) "makespan" a.Traffic.r_makespan_s
    b.Traffic.r_makespan_s;
  Alcotest.(check string) "latency sketch byte-identical"
    (Sketch.encode a.Traffic.r_sketch)
    (Sketch.encode b.Traffic.r_sketch);
  Alcotest.(check bool) "queries completed" true (a.Traffic.r_completed > 0);
  Alcotest.(check bool) "updates flowed" true
    (a.Traffic.r_update_messages > 0)

let traffic_trace_run jobs =
  let prev = Pool.jobs (Pool.global ()) in
  Pool.set_global_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Pool.set_global_jobs prev)
    (fun () ->
      Span.clear ();
      Span.start [ Span.Events ];
      let points =
        Fun.protect ~finally:Span.stop (fun () ->
            Traffic.sweep ~opts:fast_opts eri_cfg ())
      in
      let jsonl = Span.render_flat_jsonl () in
      Span.clear ();
      (points, jsonl))

let test_traffic_trace_bit_identical () =
  let points1, jsonl1 = traffic_trace_run 1 in
  let points4, jsonl4 = traffic_trace_run 4 in
  Alcotest.(check bool) "trace not empty" true (String.length jsonl1 > 0);
  Alcotest.(check bool) "query hops recorded" true
    (Astring.String.is_infix ~affix:"\"name\":\"forward\"" jsonl1);
  Alcotest.(check bool) "update hops recorded" true
    (Astring.String.is_infix ~affix:"\"name\":\"update_hop\"" jsonl1);
  Alcotest.(check bool) "completions recorded" true
    (Astring.String.is_infix ~affix:"\"name\":\"complete\"" jsonl1);
  Alcotest.(check string) "traces byte-identical at jobs 1 vs 4" jsonl1
    jsonl4;
  Alcotest.(check string) "points identical at jobs 1 vs 4"
    (Traffic.json_of ~opts:fast_opts points1)
    (Traffic.json_of ~opts:fast_opts points4)

(* The traffic plane records into the same event log as the trial
   bodies: the span export is non-empty and byte-identical at any pool
   width, every completed query is one root span, and each query or
   wave root parents exactly its own messages (its [messages] argument)
   and closes no earlier than the last of them. *)
let traffic_span_run jobs =
  let prev = Pool.jobs (Pool.global ()) in
  Pool.set_global_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Pool.set_global_jobs prev)
    (fun () ->
      Span.clear ();
      Span.start [ Span.Events ];
      let points =
        Fun.protect ~finally:Span.stop (fun () ->
            Traffic.sweep ~opts:fast_opts eri_cfg ())
      in
      let jsonl = Span.render_jsonl () in
      let groups = Span.spans () in
      Span.clear ();
      (points, jsonl, groups))

let test_traffic_spans () =
  let points, jsonl1, groups = traffic_span_run 1 in
  let _, jsonl4, _ = traffic_span_run 4 in
  Alcotest.(check bool) "span export not empty" true (jsonl1 <> "");
  Alcotest.(check string) "spans byte-identical at jobs 1 vs 4" jsonl1 jsonl4;
  let queries = ref 0 and waves = ref 0 in
  List.iter
    (fun (_, rs) ->
      let by_sid = Hashtbl.create 1024 in
      List.iter (fun r -> Hashtbl.replace by_sid r.Span.sid r) rs;
      (* root sid -> (children, latest child tick) *)
      let children = Hashtbl.create 1024 in
      List.iter
        (fun r ->
          let root_name =
            match r.Span.name with
            | "hop" | "backtrack" | "results" -> Some "query"
            | "deliver" -> Some "update_wave"
            | _ -> None
          in
          match root_name with
          | Some name ->
              let parent =
                Option.fold ~none:"" ~some:(fun p -> p.Span.name)
                  (Hashtbl.find_opt by_sid r.Span.parent)
              in
              Alcotest.(check string) (r.Span.name ^ " parent") name parent;
              let n, _ =
                Option.value ~default:(0, 0) (Hashtbl.find_opt children r.Span.parent)
              in
              Hashtbl.replace children r.Span.parent (n + 1, r.Span.t1)
          | None -> ())
        rs;
      List.iter
        (fun r ->
          if r.Span.name = "query" || r.Span.name = "update_wave" then begin
            if r.Span.name = "query" then incr queries else incr waves;
            Alcotest.(check int) "a root" (-1) r.Span.parent;
            let messages =
              match List.assoc_opt "messages" r.Span.args with
              | Some (Span.Int n) -> n
              | _ -> -1
            in
            let n, last =
              Option.value ~default:(0, 0) (Hashtbl.find_opt children r.Span.sid)
            in
            Alcotest.(check int) (r.Span.name ^ " parents its own messages") messages n;
            Alcotest.(check bool) (r.Span.name ^ " closes after them") true
              (r.Span.t1 > last)
          end)
        rs)
    groups;
  Alcotest.(check int) "one root per completed query"
    (List.fold_left (fun acc p -> acc + p.Traffic.q_completed) 0 points)
    !queries;
  Alcotest.(check bool) "waves recorded" true (!waves > 0)

let test_sweep_shape () =
  let opts = { fast_opts with Traffic.o_qps = [ 100.; 400. ]; o_trials = 1 } in
  let points = Traffic.sweep ~opts eri_cfg () in
  Alcotest.(check int) "one point per rate" 2 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "p50 <= p95" true
        (p.Traffic.q_p50_ms <= p.Traffic.q_p95_ms);
      Alcotest.(check bool) "p95 <= p99" true
        (p.Traffic.q_p95_ms <= p.Traffic.q_p99_ms);
      Alcotest.(check bool) "completed all arrivals" true
        (p.Traffic.q_completed = p.Traffic.q_arrivals);
      Alcotest.(check bool) "makespan covers the window" true
        (p.Traffic.q_makespan_s >= opts.Traffic.o_duration))
    points;
  let report = Traffic.report_of points in
  Alcotest.(check int) "report rows" 2
    (List.length report.Ri_experiments.Report.rows)

(* ------------------------------------------------------------------ *)
(* Traffic observatory: depth conventions, decomposition, hotspots,    *)
(* timeline.                                                           *)

(* Pin the one depth definition (satellite of the observatory PR):
   depth = waiting messages excluding the one in service; queue_mean
   samples at arrival BEFORE the arriver joins; queue_peak samples
   AFTER it joins; the per-node fields use the same definition and the
   globals are folds of them. *)
let test_queue_depth_conventions () =
  let eng = Engine.create ~service_ns:10 ~nodes:2 () in
  for _ = 1 to 3 do
    Engine.inject eng ~at:0 ~dst:0 ignore
  done;
  Engine.run eng;
  (* Arrival depths seen: 0 (goes straight to service), 0 (mailbox
     empty, server busy -> joins, peak 1), 1 (-> peak 2). *)
  Alcotest.(check int) "global peak counts the joined arrival" 2
    (Engine.queue_peak eng);
  Alcotest.(check (float 1e-9)) "global mean samples before joining"
    (1. /. 3.) (Engine.queue_mean eng);
  let s = Engine.node_stat eng 0 in
  Alcotest.(check int) "per-node arrivals" 3 s.Engine.s_arrivals;
  Alcotest.(check int) "per-node completions" 3 s.Engine.s_completions;
  Alcotest.(check int) "per-node peak = global peak" 2 s.Engine.s_peak;
  Alcotest.(check int) "per-node depth sum (0+0+1)" 1 s.Engine.s_depth_sum;
  (* Waits: 0, 10 (enq at 0, service starts at 10), 20. *)
  Alcotest.(check int) "per-node queue-wait ns" 30 s.Engine.s_wait_ns;
  Alcotest.(check int) "per-node busy ns" 30 s.Engine.s_busy_ns;
  let idle = Engine.node_stat eng 1 in
  Alcotest.(check int) "idle node untouched" 0 idle.Engine.s_arrivals;
  Alcotest.(check int) "backlog drains to zero" 0 (Engine.backlog eng);
  match Engine.node_stat eng 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range node_stat accepted"

(* The decomposition invariant: queue + service + link sums exactly to
   end-to-end, in integer nanoseconds, over every completed query —
   with and without interleaved update waves sharing the mailboxes. *)
let test_decomposition_exact () =
  List.iter
    (fun opts ->
      List.iter
        (fun trial ->
          let r = Traffic.simulate eri_cfg ~opts ~qps:400. ~trial in
          let d = r.Traffic.r_decomp in
          Alcotest.(check int) "one record per completed query"
            r.Traffic.r_completed d.Observatory.d_queries;
          Alcotest.(check bool) "queue+service+link = end-to-end" true
            (Observatory.decomp_exact d);
          Alcotest.(check bool) "components non-negative" true
            (d.Observatory.d_queue_ns >= 0
            && d.Observatory.d_service_ns > 0
            && d.Observatory.d_link_ns >= 0);
          (* Every completed query names exactly one critical hop. *)
          Alcotest.(check int) "critical hops sum to completions"
            r.Traffic.r_completed
            (Array.fold_left ( + ) 0 r.Traffic.r_nodes.Observatory.a_critical))
        [ 0; 1 ])
    [ fast_opts; { fast_opts with Traffic.o_update_rate = 0. } ]

(* The same invariant as a property: whatever the load, capacity, link
   delay or trial, the split never leaks a nanosecond. *)
let prop_decomposition_exact =
  QCheck.Test.make ~name:"decomposition sums exactly under random loads"
    ~count:8
    QCheck.(
      quad (float_range 50. 2000.) (float_range 2000. 20000.)
        (float_range 0. 0.5) (int_range 0 2))
    (fun (qps, service_rate, link_latency, trial) ->
      let opts =
        {
          fast_opts with
          Traffic.o_service_rate = service_rate;
          o_link_latency = link_latency;
        }
      in
      let r = Traffic.simulate eri_cfg ~opts ~qps ~trial in
      Observatory.decomp_exact r.Traffic.r_decomp
      && r.Traffic.r_decomp.Observatory.d_queries = r.Traffic.r_completed)

(* With no update traffic every mailbox delivery belongs to a query, so
   the engine's per-node attribution must reconcile exactly with the
   decomposition totals — and the globals with the per-node folds. *)
let test_node_attribution_consistent () =
  let opts = { fast_opts with Traffic.o_update_rate = 0. } in
  let r = Traffic.simulate eri_cfg ~opts ~qps:400. ~trial:0 in
  let acc = r.Traffic.r_nodes in
  let sum a = Array.fold_left ( + ) 0 a in
  Alcotest.(check int) "per-node waits fold to the decomposition"
    r.Traffic.r_decomp.Observatory.d_queue_ns
    (sum acc.Observatory.a_wait_ns);
  Alcotest.(check int) "per-node busy folds to the decomposition"
    r.Traffic.r_decomp.Observatory.d_service_ns
    (sum acc.Observatory.a_busy_ns);
  Alcotest.(check int) "global peak = max per-node peak"
    r.Traffic.r_queue_peak
    (Array.fold_left max 0 acc.Observatory.a_peak);
  Alcotest.(check bool) "traffic reached several nodes" true
    (Array.to_seq acc.Observatory.a_arrivals
    |> Seq.filter (fun a -> a > 0)
    |> Seq.length > 1)

(* The engine's fault-free conservation laws under traffic, on a tree
   and on a power-law overlay with update waves: every mailbox arrival
   completes, every query completes, and the engine services exactly
   one delivery per entry injection, walk forward, walk return, update
   message and wave start.  The walk and wave totals come from the
   metrics registry, which [Traffic.simulate] feeds once per query and
   once per trial. *)
let test_engine_conservation () =
  let forwards = Metrics.counter "ri_query_forwards_total"
  and returns = Metrics.counter "ri_query_returns_total"
  and waves = Metrics.counter "ri_traffic_waves_total" in
  let power =
    Config.with_search
      (Config.with_topology small Config.Power_law_graph)
      (Config.Ri (Config.eri small))
  in
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled was)
    (fun () ->
      List.iter
        (fun (name, cfg, opts) ->
          for trial = 0 to 1 do
            let check what = Alcotest.(check int) (name ^ ": " ^ what) in
            let f0 = Metrics.counter_value forwards
            and r0 = Metrics.counter_value returns
            and w0 = Metrics.counter_value waves in
            let r = Traffic.simulate cfg ~opts ~qps:400. ~trial in
            let acc = r.Traffic.r_nodes in
            Array.iteri
              (fun v arrived ->
                check
                  (Printf.sprintf "node %d completes every arrival" v)
                  arrived acc.Observatory.a_completions.(v))
              acc.Observatory.a_arrivals;
            check "every query completes" r.Traffic.r_arrivals
              r.Traffic.r_completed;
            let wave_starts = Metrics.counter_value waves - w0 in
            check "serviced = entries + forwards + returns + updates + waves"
              (r.Traffic.r_arrivals
              + (Metrics.counter_value forwards - f0)
              + (Metrics.counter_value returns - r0)
              + r.Traffic.r_update_messages + wave_starts)
              (Array.fold_left ( + ) 0 acc.Observatory.a_completions);
            Alcotest.(check bool) (name ^ ": waves flowed") true
              (wave_starts > 0 && r.Traffic.r_update_messages > 0)
          done)
        [
          ("tree", eri_cfg, fast_opts);
          ( "power law",
            power,
            { fast_opts with Traffic.o_update_rate = 50.; o_duration = 0.2 } );
        ])

let test_hotspot_ranking () =
  let acc = Observatory.acc_create 4 in
  (* node 1: most wait; node 3: less wait; node 0: busy only; 2: idle *)
  acc.Observatory.a_arrivals.(0) <- 5;
  acc.Observatory.a_busy_ns.(0) <- 500;
  acc.Observatory.a_arrivals.(1) <- 9;
  acc.Observatory.a_wait_ns.(1) <- 900;
  acc.Observatory.a_peak.(1) <- 7;
  acc.Observatory.a_arrivals.(3) <- 2;
  acc.Observatory.a_wait_ns.(3) <- 100;
  let hs = Observatory.hotspots acc ~makespan_ns:1000 ~k:3 in
  Alcotest.(check (list int)) "wait-ns ranking, idle node excluded"
    [ 1; 3; 0 ]
    (List.map (fun h -> h.Observatory.h_node) hs);
  Alcotest.(check (float 1e-9)) "utilization = busy/makespan" 0.5
    (List.nth hs 2).Observatory.h_utilization;
  Alcotest.(check int) "k caps the table" 1
    (List.length (Observatory.hotspots acc ~makespan_ns:1000 ~k:1));
  Alcotest.(check (list int)) "k=0 hides it" []
    (List.map
       (fun h -> h.Observatory.h_node)
       (Observatory.hotspots acc ~makespan_ns:1000 ~k:0));
  (* merge: sums element-wise, peak with max *)
  let acc2 = Observatory.acc_create 4 in
  acc2.Observatory.a_wait_ns.(1) <- 50;
  acc2.Observatory.a_peak.(1) <- 3;
  Observatory.acc_merge ~into:acc acc2;
  Alcotest.(check int) "wait merged by sum" 950 acc.Observatory.a_wait_ns.(1);
  Alcotest.(check int) "peak merged by max" 7 acc.Observatory.a_peak.(1);
  match Observatory.acc_merge ~into:acc (Observatory.acc_create 3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "size-mismatched merge accepted"

let test_timeline_clamps () =
  Span.clear ();
  Span.start [ Span.Timeline ];
  Fun.protect
    ~finally:(fun () ->
      Span.stop ();
      Span.clear ())
    (fun () ->
      Span.with_trial ~trial:0 (fun sink ->
          let tl = Observatory.Timeline.create ~bins:4 ~width_ns:10 in
          Observatory.Timeline.arrival tl ~at:0 ~depth:2;
          Observatory.Timeline.arrival tl ~at:35 ~depth:1;
          (* past the last bin: the drain overhang clamps into it *)
          Observatory.Timeline.completion tl ~at:400 ~depth:0;
          Observatory.Timeline.flush tl sink);
      let jsonl = Observatory.render_jsonl () in
      let lines =
        String.split_on_char '\n' jsonl
        |> List.filter (fun l -> String.trim l <> "")
      in
      (* bins 0 and 3 are non-empty; 1 and 2 are skipped *)
      Alcotest.(check int) "only non-empty bins exported" 2
        (List.length lines);
      Alcotest.(check bool) "bin 0 carries its arrival and depth" true
        (Astring.String.is_infix
           ~affix:
             "\"bin\":0,\"start_ns\":0,\"width_ns\":10,\"arrivals\":1,\
              \"completions\":0,\"depth_sum\":2,\"samples\":1,\
              \"depth_peak\":2"
           jsonl);
      Alcotest.(check bool) "overhang clamped into the last bin" true
        (Astring.String.is_infix
           ~affix:"\"bin\":3,\"start_ns\":30,\"width_ns\":10,\"arrivals\":1,\
                   \"completions\":1"
           jsonl));
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad Timeline.create accepted")
    [
      (fun () -> Observatory.Timeline.create ~bins:0 ~width_ns:10);
      (fun () -> Observatory.Timeline.create ~bins:4 ~width_ns:0);
    ]

(* The recorder only reads engine state: a simulation with timeline
   recording on must be bit-identical to one with it off. *)
let test_recording_does_not_perturb () =
  let off = Traffic.simulate eri_cfg ~opts:fast_opts ~qps:200. ~trial:0 in
  Span.clear ();
  Span.start [ Span.Timeline ];
  let on_ =
    Fun.protect
      ~finally:(fun () ->
        Span.stop ();
        Span.clear ())
      (fun () -> Traffic.simulate eri_cfg ~opts:fast_opts ~qps:200. ~trial:0)
  in
  Alcotest.(check string) "sketch bytes identical with recording on"
    (Sketch.encode off.Traffic.r_sketch)
    (Sketch.encode on_.Traffic.r_sketch);
  Alcotest.(check int) "same completions" off.Traffic.r_completed
    on_.Traffic.r_completed;
  Alcotest.(check int) "same decomposition total"
    off.Traffic.r_decomp.Observatory.d_total_ns
    on_.Traffic.r_decomp.Observatory.d_total_ns;
  (* What recording costs, as a work count rather than a timing: on a
     2000-node ERI tree at 2000 qps for 20 ms (service 20000/s, link
     0.05 ms), trial 3 may allocate at most 1% more minor words with
     the timeline recording than without it. *)
  let base = Config.scaled { Config.base with Config.seed = 7 } ~num_nodes:2000 in
  let cfg = Config.with_search base (Config.Ri (Config.eri base)) in
  let opts =
    {
      Traffic.default_opts with
      Traffic.o_qps = [ 2000. ];
      o_duration = 0.02;
      o_service_rate = 20_000.;
      o_link_latency = 0.05;
      o_trials = 1;
    }
  in
  let minor_words () =
    let w0 = Gc.minor_words () in
    ignore (Traffic.simulate cfg ~opts ~qps:2000. ~trial:3);
    Gc.minor_words () -. w0
  in
  (* The first run builds the trial's network; both measured runs copy
     it from the setup cache. *)
  ignore (minor_words ());
  let off_words = minor_words () in
  Span.start [ Span.Timeline ];
  let on_words =
    Fun.protect
      ~finally:(fun () ->
        Span.stop ();
        Span.clear ())
      minor_words
  in
  Alcotest.(check bool)
    (Printf.sprintf "recording adds at most 1%% minor words (off %.0f, on %.0f)"
       off_words on_words)
    true
    (off_words > 0. && on_words <= 1.01 *. off_words)

let traffic_timeline_run jobs =
  let prev = Pool.jobs (Pool.global ()) in
  Pool.set_global_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Pool.set_global_jobs prev)
    (fun () ->
      Span.clear ();
      Span.start [ Span.Timeline ];
      let points =
        Fun.protect ~finally:Span.stop (fun () ->
            Traffic.sweep ~opts:fast_opts eri_cfg ())
      in
      let jsonl = Observatory.render_jsonl () in
      Span.clear ();
      (points, jsonl))

let test_timeline_bit_identical () =
  let points1, jsonl1 = traffic_timeline_run 1 in
  let points4, jsonl4 = traffic_timeline_run 4 in
  Alcotest.(check bool) "timeline not empty" true (String.length jsonl1 > 0);
  Alcotest.(check string) "timeline byte-identical at jobs 1 vs 4" jsonl1
    jsonl4;
  Alcotest.(check string)
    "points (incl. hotspots) identical at jobs 1 vs 4"
    (Traffic.json_of ~opts:fast_opts points1)
    (Traffic.json_of ~opts:fast_opts points4);
  (* every trial of the sweep's one point flushed a timeline *)
  List.iter
    (fun trial ->
      Alcotest.(check bool)
        (Printf.sprintf "trial %d present" trial)
        true
        (Astring.String.is_infix
           ~affix:(Printf.sprintf "\"trial\":%d," trial)
           jsonl1))
    [ 0; 1; 2 ]

(* Past the knee the decomposition must attribute the latency growth to
   queue-wait, concentrated on the top-K hotspot nodes. *)
let test_knee_attribution () =
  let opts =
    { fast_opts with Traffic.o_qps = [ 200.; 4000. ]; o_update_rate = 0. }
  in
  match Traffic.sweep ~opts eri_cfg () with
  | [ calm; hot ] ->
      Alcotest.(check bool) "high rate saturates" true hot.Traffic.q_saturated;
      Alcotest.(check bool) "low rate does not" false calm.Traffic.q_saturated;
      Alcotest.(check bool) "queue-wait dominates past the knee" true
        (hot.Traffic.q_queue_share > 0.5);
      Alcotest.(check bool) "queue share grew with load" true
        (hot.Traffic.q_queue_share > calm.Traffic.q_queue_share);
      Alcotest.(check bool) "service+link stay flat across load" true
        (Float.abs
           (hot.Traffic.q_service_ms +. hot.Traffic.q_link_ms
           -. (calm.Traffic.q_service_ms +. calm.Traffic.q_link_ms))
        < 0.5
           *. (calm.Traffic.q_service_ms +. calm.Traffic.q_link_ms));
      let hs = hot.Traffic.q_hotspots in
      Alcotest.(check int) "top-K table filled" opts.Traffic.o_hotspots
        (List.length hs);
      Alcotest.(check bool) "ranked by accumulated queue-wait" true
        (let rec sorted = function
           | a :: (b :: _ as tl) ->
               a.Observatory.h_wait_ns >= b.Observatory.h_wait_ns && sorted tl
           | _ -> true
         in
         sorted hs);
      let top = List.hd hs in
      Alcotest.(check bool) "top hotspot accumulated real wait" true
        (top.Observatory.h_wait_ns > 0);
      Alcotest.(check bool) "top hotspot took critical hops" true
        (top.Observatory.h_critical > 0);
      Alcotest.(check bool) "utilization in (0, 1]" true
        (top.Observatory.h_utilization > 0.
        && top.Observatory.h_utilization <= 1.)
  | points -> Alcotest.failf "expected 2 points, got %d" (List.length points)

let test_invalid_opts_rejected () =
  List.iter
    (fun opts ->
      match Traffic.measure ~opts eri_cfg ~qps:100. with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "invalid traffic opts accepted")
    [
      { fast_opts with Traffic.o_duration = 0. };
      { fast_opts with Traffic.o_service_rate = 0. };
      { fast_opts with Traffic.o_link_latency = -1. };
      { fast_opts with Traffic.o_qps = [] };
      { fast_opts with Traffic.o_qps = [ -5. ] };
      { fast_opts with Traffic.o_trials = 0 };
      { fast_opts with Traffic.o_hotspots = -1 };
      { fast_opts with Traffic.o_timeline_bins = 0 };
    ];
  match
    Traffic.simulate
      (Config.with_search small (Config.Flooding { ttl = None }))
      ~opts:fast_opts ~qps:100. ~trial:0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "flooding traffic accepted"

let suite =
  ( "traffic",
    [
      Alcotest.test_case "heap pops (time, seq)" `Quick test_heap_tiebreak;
      Alcotest.test_case "heap stress stays sorted" `Quick
        test_heap_stress_sorted;
      Alcotest.test_case "scheduling into the past rejected" `Quick
        test_schedule_past_rejected;
      Alcotest.test_case "mailbox FIFO service" `Quick test_mailbox_service;
      Alcotest.test_case "link latency per hop" `Quick test_link_latency;
      Alcotest.test_case "a delivery allocates no engine words" `Quick
        test_delivery_allocates_nothing;
      QCheck_alcotest.to_alcotest prop_engine_matches_model;
      Alcotest.test_case "engine matches the model past its first slots"
        `Quick test_engine_matches_model_bursts;
      Alcotest.test_case "Step.start allocates at most n/8 words" `Quick
        test_step_start_allocation;
      Alcotest.test_case "zero-latency Step replays Query.run (RI)" `Quick
        test_step_matches_run_ri;
      Alcotest.test_case "zero-latency Step replays Query.run (random walk)"
        `Quick test_step_matches_run_random_walk;
      Alcotest.test_case "zero-latency engine wave replays local_change"
        `Quick test_engine_wave_matches_sync;
      Alcotest.test_case "poisson gaps average 1/rate" `Quick
        test_poisson_mean;
      Alcotest.test_case "poisson rejects bad rates" `Quick
        test_poisson_rejects_bad_rate;
      Alcotest.test_case "zipf pmf shape" `Quick test_zipf_pmf;
      Alcotest.test_case "zipf draws follow the pmf" `Quick
        test_zipf_draw_frequencies;
      Alcotest.test_case "zipf popularity shifts" `Quick test_zipf_shift;
      Alcotest.test_case "zipf rejects bad arguments" `Quick
        test_zipf_rejects_bad_args;
      Alcotest.test_case "simulate is deterministic" `Quick
        test_simulate_deterministic;
      Alcotest.test_case "traffic traces byte-identical across jobs" `Quick
        test_traffic_trace_bit_identical;
      Alcotest.test_case "traffic spans: one root per query" `Quick
        test_traffic_spans;
      Alcotest.test_case "sweep shape and quantile ordering" `Quick
        test_sweep_shape;
      Alcotest.test_case "queue depth conventions pinned" `Quick
        test_queue_depth_conventions;
      Alcotest.test_case "latency decomposition is exact" `Quick
        test_decomposition_exact;
      QCheck_alcotest.to_alcotest prop_decomposition_exact;
      Alcotest.test_case "per-node attribution reconciles" `Quick
        test_node_attribution_consistent;
      Alcotest.test_case "engine conservation laws" `Quick
        test_engine_conservation;
      Alcotest.test_case "hotspot ranking and merging" `Quick
        test_hotspot_ranking;
      Alcotest.test_case "timeline bins clamp and flush" `Quick
        test_timeline_clamps;
      Alcotest.test_case "recording does not perturb the run" `Quick
        test_recording_does_not_perturb;
      Alcotest.test_case "timeline byte-identical across jobs" `Quick
        test_timeline_bit_identical;
      Alcotest.test_case "past the knee, queue-wait dominates" `Quick
        test_knee_attribution;
      Alcotest.test_case "invalid options rejected" `Quick
        test_invalid_opts_rejected;
    ] )
