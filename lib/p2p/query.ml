open Ri_util
open Ri_core

type forwarding = Ri_guided | Random_walk

type outcome = {
  found : int;
  satisfied : bool;
  nodes_visited : int;
  counters : Message.counters;
}

let messages o = Message.query_messages o.counters

type event =
  | Forwarded of { sender : int; receiver : int }
  | Returned of { sender : int; receiver : int }
  | Results of { at : int; count : int }
  | Timed_out of { sender : int; receiver : int; attempt : int }
  | Gave_up of { sender : int; receiver : int }
  | Reconciled of { a : int; b : int }

(* Aggregate per-query message counts land in the metrics registry once
   per query, from the outcome counters — never per message. *)
let m_queries mode =
  Ri_obs.Metrics.counter ~help:"Queries executed." ~labels:[ ("mode", mode) ]
    "ri_queries_total"

let m_ri_guided = m_queries "ri_guided"

let m_random_walk = m_queries "random_walk"

let m_parallel = m_queries "parallel"

let m_flood = m_queries "flood"

let m_forwards =
  Ri_obs.Metrics.counter ~help:"Query messages forwarded."
    "ri_query_forwards_total"

let m_returns =
  Ri_obs.Metrics.counter ~help:"Query messages returned (backtracks)."
    "ri_query_returns_total"

let m_results =
  Ri_obs.Metrics.counter ~help:"Result-pointer messages sent."
    "ri_query_results_total"

let m_satisfied =
  Ri_obs.Metrics.counter ~help:"Queries that met their stop condition."
    "ri_query_satisfied_total"

(* Distribution of per-query cost: the counters feed the totals above
   and, once per query, these summaries — which is where p95/p99 of
   messages and hops come from. *)
let s_messages =
  Ri_obs.Metrics.summary ~help:"Messages per query (quantile sketch)."
    "ri_query_messages"

let s_hops =
  Ri_obs.Metrics.summary ~help:"Forward hops per query (quantile sketch)."
    "ri_query_hops"

let record_outcome kind o =
  if Ri_obs.Metrics.enabled () then begin
    Ri_obs.Metrics.incr kind;
    Ri_obs.Metrics.add m_forwards o.counters.Message.query_forwards;
    Ri_obs.Metrics.add m_returns o.counters.Message.query_returns;
    Ri_obs.Metrics.add m_results o.counters.Message.result_messages;
    if o.satisfied then Ri_obs.Metrics.incr m_satisfied;
    Ri_obs.Metrics.observe s_messages (float_of_int (messages o));
    Ri_obs.Metrics.observe s_hops (float_of_int o.counters.Message.query_forwards)
  end;
  o

type frame = { node : int; from : int; mutable pending : int list }

(* The depth-first walk as a message-driven state machine: exactly one
   message is in flight per query — the forward the walk just sent (or
   resent after a timeout), or the return bouncing it back — so
   delivering that message yields at most one successor.  [run] drains
   the machine inline (the zero-latency schedule: one token means
   delivery order cannot differ); the event engine instead routes each
   [send] through mailbox queueing and link latency, interleaving
   thousands of walks.  A fault plan adds transitions: [advance] skips
   candidates known dead, ranks stale rows last and stops at the query
   budget; [deliver] turns a forward that cannot land into a timeout,
   then a resend or a give-up, and reconciles a link on first contact
   before the hop proceeds. *)
module Step = struct
  type kind = Forward | Return

  type send = { src : int; dst : int; kind : kind }

  type t = {
    net : Network.t;
    query : Ri_content.Workload.query;
    forwarding : forwarding;
    rng : Prng.t;
    plan : Fault.t option;
    budget : int;
    on_event : event -> unit;
    decide : Ri_obs.Span.sink;
    live : bool;
    scheme_name : string;
    projected : int list;
    topics : Ri_content.Topic.id list;
    counters : Message.counters;
    (* One bit per node: n/8 bytes, so a walk that reaches a few hundred
       nodes does not pay for a word per node of the whole network. *)
    visited : Bytes.t;
    (* Under no-op only ([None] under detect-and-recover): per directed
       link, how many times this query has been forwarded across it.  A
       revisited no-op node keeps no query state and re-descends ("extra
       messages are generated when we traverse a cycle more than once",
       Section 8.2); a frame offers a link only while it has been
       crossed fewer than twice, which keeps the walk finite, standing
       in for the TTL any deployed system imposes.  Detect-and-recover
       needs no count: a node opens at most one frame (the origin is
       marked visited before its frame exists, and a revisit bounces
       before ranking), and only its own frame forwards across its
       links, so every count would still be 0 when ranking read it. *)
    sent : (int * int, int) Hashtbl.t option;
    (* Follow ranks (which candidate in forwarding order a frame tried)
       live in a side table touched only when recording, so the frame
       record — one allocation per visited node — stays at its
       provenance-free size. *)
    ranks : (int, int) Hashtbl.t;
    (* Links already reconciled: anti-entropy runs once per link however
       many times the walk crosses it. *)
    reconciled : (int * int, unit) Hashtbl.t;
    mutable stack : frame list;
    mutable remaining : int;
    mutable found : int;
    mutable nodes_visited : int;
    (* The forward in flight: its timeouts so far, and the Follow rank
       it claimed when it was first sent. *)
    mutable attempt : int;
    mutable rank : int;
    mutable budget_stopped : bool;
  }

  let sends sent u v = Option.value ~default:0 (Hashtbl.find_opt sent (u, v))

  let visited t u =
    Char.code (Bytes.get t.visited (u lsr 3)) land (1 lsl (u land 7)) <> 0

  let process_visit t u =
    if not (visited t u) then begin
      let i = u lsr 3 in
      Bytes.set t.visited i
        (Char.chr (Char.code (Bytes.get t.visited i) lor (1 lsl (u land 7))));
      t.nodes_visited <- t.nodes_visited + 1;
      let local = Network.count_matching t.net u t.topics in
      if local > 0 then begin
        t.counters.Message.result_messages <-
          t.counters.Message.result_messages + 1;
        t.on_event (Results { at = u; count = local });
        t.found <- t.found + local;
        t.remaining <- t.remaining - local
      end
    end

  let order_neighbors t u ~from =
    let is_candidate v =
      v <> from
      && (match t.sent with Some sent -> sends sent u v < 2 | None -> true)
      &&
      match t.plan with
      | Some p -> not (Fault.knows_dead p ~at:u ~dead:v)
      | None -> true
    in
    match (t.forwarding, t.plan) with
    | Random_walk, _ ->
        let nbrs = Network.neighbors t.net u in
        let count = ref 0 in
        Array.iter (fun v -> if is_candidate v then incr count) nbrs;
        let cands = Array.make !count 0 in
        let i = ref 0 in
        Array.iter
          (fun v ->
            if is_candidate v then begin
              cands.(!i) <- v;
              incr i
            end)
          nbrs;
        Prng.shuffle_in_place t.rng cands;
        Array.to_list cands
    | Ri_guided, Some p when Fault.fallback p ->
        (* Graceful degradation: rows with detectable update gaps are not
           trusted — fresh rows rank by goodness as usual, stale ones
           follow in random (No-RI) order.  Demotion alone does most of
           the work: a garbage count can no longer outbid an honest
           one. *)
        let fresh v = not (Fault.stale p ~at:u ~peer:v) in
        let ranked =
          Scheme.rank_peers (Network.ri t.net u) ~query:t.projected
            ~keep:(fun v -> is_candidate v && fresh v)
        in
        let stale =
          List.filter
            (fun v -> is_candidate v && not (fresh v))
            (List.sort compare (Scheme.peers (Network.ri t.net u)))
        in
        if stale = [] then ranked
        else begin
          let arr = Array.of_list stale in
          Fault.shuffle p arr;
          Fault.note_fallbacks p (Array.length arr);
          ranked @ Array.to_list arr
        end
    | Ri_guided, _ ->
        (* Only neighbors the RI knows about are candidates: on a rooted
           construction that is exactly the downstream neighbors, and on
           a converged network every link has a row. *)
        Scheme.rank_peers (Network.ri t.net u) ~query:t.projected
          ~keep:is_candidate

  (* A message from [x] cannot reach [y]: [y] is crash-stopped or a cut
     severs the link. *)
  let blocked t x y =
    match t.plan with
    | Some p -> Fault.is_dead p y || not (Fault.same_side p x y)
    | None -> false

  (* Oracle: matching documents actually reachable through candidate [v]
     when deciding at [u] — BFS over live links with [u] removed (the
     query would arrive via [u], so paths back through it are not [v]'s
     to claim) and crash-stopped nodes impassable. *)
  let truth_of t u v =
    if blocked t u v then 0
    else begin
      let n = Network.size t.net in
      let seen = Bytes.make n '\000' in
      Bytes.set seen u '\001';
      Bytes.set seen v '\001';
      let q = Queue.create () in
      Queue.add v q;
      let total = ref 0 in
      while not (Queue.is_empty q) do
        let x = Queue.pop q in
        total := !total + Network.count_matching t.net x t.topics;
        Array.iter
          (fun y ->
            if Bytes.get seen y = '\000' then begin
              Bytes.set seen y '\001';
              if not (blocked t x y) then Queue.add y q
            end)
          (Network.neighbors t.net x)
      done;
      !total
    end

  (* Provenance capture.  Runs only when a Decision sink is recording —
     in particular the per-candidate oracle BFS, which costs O(edges)
     per decision and must never touch the measured query path. *)
  let emit_decide t u ~from order =
    let ri_goodness v =
      match t.forwarding with
      | Ri_guided ->
          Scheme.goodness (Network.ri t.net u) ~peer:v ~query:t.projected
      | Random_walk -> 0.
    in
    let stale_of v =
      match t.plan with
      | Some p -> Fault.stale p ~at:u ~peer:v
      | None -> false
    in
    let wave_of v =
      if Network.has_ri t.net then
        Scheme.row_stamp (Network.ri t.net u) ~peer:v
      else 0
    in
    let cands =
      List.map
        (fun v ->
          {
            Ri_obs.Decision.peer = v;
            goodness = ri_goodness v;
            truth = truth_of t u v;
            stale = stale_of v;
            wave = wave_of v;
          })
        order
    in
    let oracle_best, oracle_rank, regret =
      match cands with
      | [] -> (-1, 0, 0)
      | first :: _ ->
          let _, bp, br, bt =
            List.fold_left
              (fun (i, bp, br, bt) (c : Ri_obs.Decision.candidate) ->
                if c.truth > bt || (c.truth = bt && c.peer < bp) then
                  (i + 1, c.peer, i, c.truth)
                else (i + 1, bp, br, bt))
              (0, -1, 0, min_int) cands
          in
          (bp, br, bt - first.Ri_obs.Decision.truth)
    in
    let stale_demoted =
      match t.plan with
      | Some p when Fault.fallback p ->
          List.length (List.filter (fun c -> c.Ri_obs.Decision.stale) cands)
      | _ -> 0
    in
    Ri_obs.Decision.emit t.decide
      (Decide
         {
           node = u;
           from;
           scheme = t.scheme_name;
           candidates = cands;
           oracle_best;
           oracle_rank;
           regret;
           stale_demoted;
         })

  (* Every frame opens through here so each decision point is recorded
     exactly once, with the candidate list in true forwarding order. *)
  let ordered t u ~from =
    let order = order_neighbors t u ~from in
    if t.live then emit_decide t u ~from order;
    order

  let next_rank t u =
    let r = try Hashtbl.find t.ranks u with Not_found -> 0 in
    Hashtbl.replace t.ranks u (r + 1);
    r

  (* Every attempt at a hop is a real message. *)
  let forward t ~src ~dst =
    t.counters.Message.query_forwards <- t.counters.Message.query_forwards + 1;
    t.on_event (Forwarded { sender = src; receiver = dst });
    Some { src; dst; kind = Forward }

  let bounce t ~src ~dst =
    t.counters.Message.query_returns <- t.counters.Message.query_returns + 1;
    t.on_event (Returned { sender = src; receiver = dst });
    if t.live then
      Ri_obs.Decision.emit t.decide (Backtrack { node = src; target = dst });
    Some { src; dst; kind = Return }

  (* Produce the walk's next outgoing message, doing the send-side
     bookkeeping (link counts, counters, events, provenance).  [None]
     means the query is over: satisfied, out of budget, or the origin's
     frame is exhausted. *)
  let rec advance t =
    if t.remaining <= 0 then None
    else
      match t.stack with
      | [] -> None
      | top :: rest -> (
          match top.pending with
          | [] ->
              (* Exhausted: return the query to whoever sent it. *)
              t.stack <- rest;
              if top.from >= 0 then bounce t ~src:top.node ~dst:top.from
              else advance t
          | v :: pending ->
              top.pending <- pending;
              if t.counters.Message.query_forwards >= t.budget then begin
                t.budget_stopped <- true;
                Option.iter Fault.note_budget_stop t.plan;
                t.stack <- [];
                None
              end
              else begin
                (match t.sent with
                | Some sent ->
                    Hashtbl.replace sent (top.node, v)
                      (sends sent top.node v + 1)
                | None -> ());
                (* Rank is claimed when forwarding begins, so a forward
                   abandoned after its retries still consumes its slot. *)
                if t.live then t.rank <- next_rank t top.node;
                t.attempt <- 0;
                forward t ~src:top.node ~dst:v
              end)

  (* The forward landed: the receiver processes the visit (or bounces a
     detected revisit) and the walk moves on. *)
  let arrive t ~src ~dst =
    if t.live then
      Ri_obs.Decision.emit t.decide
        (Follow { node = src; target = dst; rank = t.rank });
    if Network.cycle_policy t.net = Network.Detect_recover && visited t dst
    then
      (* The revisited node detects the duplicate and bounces the query
         straight back. *)
      bounce t ~src:dst ~dst:src
    else begin
      process_visit t dst;
      if t.remaining > 0 then
        t.stack <-
          { node = dst; from = src; pending = ordered t dst ~from:src }
          :: t.stack;
      advance t
    end

  (* First contact after fault knowledge accrued on either side: lazy
     anti-entropy across this link before the query proceeds. *)
  let reconcile t p ~src ~dst =
    let link = (min src dst, max src dst) in
    if
      Network.has_ri t.net
      && (Fault.dirty p src || Fault.dirty p dst)
      && not (Hashtbl.mem t.reconciled link)
    then begin
      Hashtbl.replace t.reconciled link ();
      Churn.reconcile t.net src dst ~plan:p ~counters:t.counters;
      t.on_event (Reconciled { a = src; b = dst })
    end

  (* Every retry timed out, or the budget ran dry mid-retry. *)
  let give_up t p ~src ~dst =
    if not (Fault.same_side p src dst) then begin
      (* Unreachable across an active cut: the peer is suspected, not
         buried.  No death certificate — post-heal anti-entropy must
         find both nodes alive — but the row gets a gap mark so ranking
         demotes it until the link is reconciled. *)
      Fault.note_missed p ~at:src ~peer:dst;
      t.on_event (Gave_up { sender = src; receiver = dst })
    end
    else if not (Fault.knows_dead p ~at:src ~dead:dst) then begin
      (* Presumed dead (possibly a false positive from flaps): remove
         the row so the garbage entry stops attracting the walk, and
         remember the certificate for gossip. *)
      ignore (Churn.detect_crash t.net src ~dead:dst ~plan:p);
      t.on_event (Gave_up { sender = src; receiver = dst })
    end;
    advance t

  (* A crash-stopped receiver, a cut or a link flap swallowed the
     forward.  The timeout charges full-jitter backoff; the sender
     resends up to [retries] times, then presumes the neighbor gone. *)
  let time_out t p ~src ~dst =
    let attempt = t.attempt in
    Fault.note_timeout p ~attempt;
    t.on_event (Timed_out { sender = src; receiver = dst; attempt });
    if t.live then
      Ri_obs.Decision.emit t.decide
        (Timeout { node = src; target = dst; attempt });
    t.attempt <- attempt + 1;
    if t.attempt > Fault.retries p then give_up t p ~src ~dst
    else begin
      Fault.note_retry p;
      if t.counters.Message.query_forwards >= t.budget then
        give_up t p ~src ~dst
      else forward t ~src ~dst
    end

  let deliver t { src; dst; kind } =
    match kind with
    | Return ->
        (* The child frame was popped when this return was sent; the
           receiver's own frame is on top again and resumes. *)
        advance t
    | Forward -> (
        match t.plan with
        | None -> arrive t ~src ~dst
        | Some p ->
            (* A dead or cross-cut receiver consumes no flap draw. *)
            if blocked t src dst || Fault.flap p then time_out t p ~src ~dst
            else begin
              reconcile t p ~src ~dst;
              arrive t ~src ~dst
            end)

  (* [who] labels validation errors, so [run]'s messages are its own. *)
  let start_for who ?rng ?(on_event = fun (_ : event) -> ())
      ?(decide = Ri_obs.Span.null) ?plan net ~origin ~query ~forwarding =
    let n = Network.size net in
    if origin < 0 || origin >= n then
      invalid_arg (who ^ ": origin out of range");
    (match plan with
    | Some p when Fault.is_dead p origin ->
        invalid_arg (who ^ ": origin is crash-stopped")
    | _ -> ());
    (match forwarding with
    | Ri_guided ->
        if not (Network.has_ri net) then
          invalid_arg (who ^ ": Ri_guided needs a network with routing indices")
    | Random_walk -> ());
    let rng = match rng with Some r -> r | None -> Network.rng net in
    let live = Ri_obs.Decision.is_live decide in
    let scheme_name =
      match forwarding with
      | Random_walk -> "none"
      | Ri_guided -> (
          match Network.scheme net with
          | Some k -> Scheme.kind_name k
          | None -> "none")
    in
    let t =
      {
        net;
        query;
        forwarding;
        rng;
        plan;
        budget =
          (match plan with Some p -> Fault.query_budget p | None -> max_int);
        on_event;
        decide;
        live;
        scheme_name;
        projected = Network.project_query net query.Ri_content.Workload.topics;
        topics = query.Ri_content.Workload.topics;
        counters = Message.create ();
        visited = Bytes.make ((n + 7) / 8) '\000';
        sent =
          (match Network.cycle_policy net with
          | Network.Detect_recover -> None
          | Network.No_op -> Some (Hashtbl.create 64));
        ranks = Hashtbl.create (if live then 32 else 1);
        reconciled = Hashtbl.create (if Option.is_some plan then 8 else 1);
        stack = [];
        remaining = query.Ri_content.Workload.stop;
        found = 0;
        nodes_visited = 0;
        attempt = 0;
        rank = 0;
        budget_stopped = false;
      }
    in
    process_visit t origin;
    if t.remaining > 0 then
      t.stack <-
        [ { node = origin; from = -1; pending = ordered t origin ~from:(-1) } ];
    (t, advance t)

  let start ?rng ?on_event ?decide net ~origin ~query ~forwarding =
    start_for "Query.Step.start" ?rng ?on_event ?decide net ~origin ~query
      ~forwarding

  let outcome t =
    {
      found = t.found;
      satisfied = t.found >= t.query.Ri_content.Workload.stop;
      nodes_visited = t.nodes_visited;
      counters = t.counters;
    }

  let finish t =
    (if t.live then
       let reason =
         if t.found >= t.query.Ri_content.Workload.stop then "satisfied"
         else if t.budget_stopped then "budget"
         else "exhausted"
       in
       Ri_obs.Decision.emit t.decide
         (Stop
            {
              reason;
              found = t.found;
              forwards = t.counters.Message.query_forwards;
              returns = t.counters.Message.query_returns;
              visited = t.nodes_visited;
            }));
    record_outcome
      (match t.forwarding with
      | Ri_guided -> m_ri_guided
      | Random_walk -> m_random_walk)
      (outcome t)
end

let run ?rng ?on_event ?decide ?plan net ~origin ~query ~forwarding =
  (* Every query executes on the step machine the event engine drives,
     drained inline: exactly the zero-latency schedule (see {!Step}). *)
  let t, first =
    Step.start_for "Query.run" ?rng ?on_event ?decide ?plan net ~origin ~query
      ~forwarding
  in
  let rec drain = function None -> () | Some s -> drain (Step.deliver t s) in
  drain first;
  Step.finish t

type parallel_outcome = {
  p_found : int;
  p_satisfied : bool;
  p_nodes_visited : int;
  p_rounds : int;
  p_counters : Message.counters;
}

let run_parallel ?(on_event = fun (_ : event) -> ()) net ~origin ~query ~branch =
  let n = Network.size net in
  if origin < 0 || origin >= n then
    invalid_arg "Query.run_parallel: origin out of range";
  if branch <= 0 then invalid_arg "Query.run_parallel: branch must be positive";
  if not (Network.has_ri net) then
    invalid_arg "Query.run_parallel: needs a network with routing indices";
  let projected = Network.project_query net query.Ri_content.Workload.topics in
  let topics = query.Ri_content.Workload.topics in
  let counters = Message.create () in
  let visited = Array.make n false in
  let found = ref 0 in
  let nodes_visited = ref 0 in
  let process u =
    visited.(u) <- true;
    incr nodes_visited;
    let local = Network.count_matching net u topics in
    if local > 0 then begin
      counters.result_messages <- counters.result_messages + 1;
      on_event (Results { at = u; count = local });
      found := !found + local
    end
  in
  process origin;
  let satisfied () = !found >= query.Ri_content.Workload.stop in
  let rec expand frontier rounds =
    if satisfied () || frontier = [] then rounds
    else begin
      (* Each frontier node simultaneously forwards to its [branch] best
         neighbors.  Duplicate deliveries within the round are dropped
         on receipt, like any repeat under detect-and-recover, but the
         messages were sent and count. *)
      let next = ref [] in
      List.iter
        (fun (u, from) ->
          let ranked =
            Scheme.rank_array (Network.ri net u) ~query:projected
              ~keep:(fun p -> p <> from)
          in
          let limit = min branch (Array.length ranked) in
          for i = 0 to limit - 1 do
            let v, _ = ranked.(i) in
            counters.query_forwards <- counters.query_forwards + 1;
            on_event (Forwarded { sender = u; receiver = v });
            if not visited.(v) then begin
              process v;
              next := (v, u) :: !next
            end
          done)
        frontier;
      expand !next (rounds + 1)
    end
  in
  let rounds = expand [ (origin, -1) ] 0 in
  if Ri_obs.Metrics.enabled () then begin
    Ri_obs.Metrics.incr m_parallel;
    Ri_obs.Metrics.add m_forwards counters.Message.query_forwards;
    Ri_obs.Metrics.add m_results counters.Message.result_messages;
    if satisfied () then Ri_obs.Metrics.incr m_satisfied;
    Ri_obs.Metrics.observe s_messages
      (float_of_int (Message.query_messages counters));
    Ri_obs.Metrics.observe s_hops (float_of_int counters.Message.query_forwards)
  end;
  {
    p_found = !found;
    p_satisfied = satisfied ();
    p_nodes_visited = !nodes_visited;
    p_rounds = rounds;
    p_counters = counters;
  }

let flood ?(on_event = fun (_ : event) -> ()) ?plan net ~origin ~query ?ttl () =
  let n = Network.size net in
  if origin < 0 || origin >= n then invalid_arg "Query.flood: origin out of range";
  (match plan with
  | Some p when Fault.is_dead p origin ->
      invalid_arg "Query.flood: origin is crash-stopped"
  | _ -> ());
  let ttl = Option.value ttl ~default:max_int in
  let budget = match plan with Some p -> Fault.query_budget p | None -> max_int in
  let budget_stopped = ref false in
  let topics = query.Ri_content.Workload.topics in
  let counters = Message.create () in
  let processed = Array.make n false in
  let found = ref 0 in
  let nodes_visited = ref 0 in
  let q = Queue.create () in
  let process u ~depth ~from =
    processed.(u) <- true;
    incr nodes_visited;
    let local = Network.count_matching net u topics in
    if local > 0 then begin
      counters.result_messages <- counters.result_messages + 1;
      on_event (Results { at = u; count = local });
      found := !found + local
    end;
    if depth < ttl then
      Array.iter
        (fun v ->
          if v <> from then
            if counters.query_forwards < budget then begin
              counters.query_forwards <- counters.query_forwards + 1;
              on_event (Forwarded { sender = u; receiver = v });
              Queue.add (v, u, depth + 1) q
            end
            else if not !budget_stopped then begin
              budget_stopped := true;
              match plan with
              | Some p -> Fault.note_budget_stop p
              | None -> ()
            end)
        (Network.neighbors net u)
  in
  process origin ~depth:0 ~from:(-1);
  while not (Queue.is_empty q) do
    let v, from, depth = Queue.pop q in
    (* Duplicate deliveries are detected by message id and dropped; the
       message was sent and counted regardless.  A crash-stopped
       receiver swallows the copy silently — flooding is fire-and-forget
       and never retries. *)
    if not processed.(v) then
      match plan with
      | Some p when Fault.is_dead p v || not (Fault.same_side p from v) -> ()
      | _ -> process v ~depth ~from
  done;
  record_outcome m_flood
    {
      found = !found;
      satisfied = !found >= query.Ri_content.Workload.stop;
      nodes_visited = !nodes_visited;
      counters;
    }
