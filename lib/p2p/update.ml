open Ri_core

type wave_seed = {
  sender : int;
  receiver : int;
  payload : Scheme.payload;
  baseline : Scheme.payload option;
  tainted : bool;
}

type event =
  | Delivered of {
      sender : int;
      receiver : int;
      significant : bool;
      forwarded : bool;
    }
  | Dropped of { sender : int; receiver : int; dead : bool }
  | Delayed of { sender : int; receiver : int; rounds : int }
  | Round of { index : int; pending : int }
      (** A message generation begins with [pending] messages queued.
          Emitted before any delivery of the round, including round 0. *)
  | Repaired of { u : int; v : int }
      (** An anti-entropy digest exchange found the [(u, v)] link stale
          and both endpoints swapped full aggregates. *)

let m_waves =
  Ri_obs.Metrics.counter ~help:"Update waves propagated." "ri_update_waves_total"

let m_messages =
  Ri_obs.Metrics.counter ~help:"Update messages delivered."
    "ri_update_messages_total"

let m_insignificant =
  Ri_obs.Metrics.counter
    ~help:"Update messages judged insignificant (wave damped)."
    "ri_update_insignificant_total"

let m_budget_stops =
  Ri_obs.Metrics.counter
    ~help:"Update waves cut off by the message budget."
    "ri_update_budget_stops_total"

let m_wire_bytes =
  Ri_obs.Metrics.counter
    ~help:"Simulated bytes shipped by update messages (delta encoding)."
    "ri_update_wire_bytes_total"

let m_ae_rounds =
  Ri_obs.Metrics.counter ~help:"Anti-entropy digest rounds run."
    "ri_update_ae_rounds_total"

let m_ae_repairs =
  Ri_obs.Metrics.counter
    ~help:"Links repaired by anti-entropy full exchanges."
    "ri_update_ae_repairs_total"

let significant net ~baseline ~payload =
  match baseline with
  | None -> true
  | Some old ->
      (* Cheap test first, and early-exit: the rel-diff scan stops at the
         first entry over the threshold, and the (full-pass) distance is
         only computed for payloads that already cleared it. *)
      Scheme.payload_exceeds_rel old payload
        ~threshold:(Network.min_update net)
      && Scheme.payload_distance old payload > Network.update_distance_floor net

(* Simulated wire cost of one update message.  Senders diff the new
   aggregate against the last export acknowledged by this neighbor (the
   seed's baseline) and ship sparse (index, delta) pairs when that is
   smaller than the dense absolute vector.  First contact (no baseline)
   and anti-entropy repair (the receiver detectably missed updates from
   this sender, so the sender's baseline does not describe the
   receiver's row) must go dense.  State application stays absolute —
   [old + (new - old)] re-derives the exact floats only symbolically, so
   the simulation applies the payload itself and only the byte metric
   models the encoding. *)
let wire_bytes plan { sender; receiver; payload; baseline; _ } =
  let full = Message.wire_full_bytes ~entries:(Scheme.payload_entries payload) in
  match baseline with
  | None -> full
  | Some b ->
      let repair =
        match plan with
        | Some p -> Fault.missed p ~at:receiver ~peer:sender > 0
        | None -> false
      in
      if repair then full
      else
        min full
          (Message.wire_delta_bytes
             ~changed:(Scheme.payload_changed_entries b payload))

(* Int-specialized list membership/lookup: these run per peer per
   forwarded message, where polymorphic compare is measurable. *)
let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> y = x || mem_int x rest

let rec assoc_opt_int (x : int) = function
  | [] -> None
  | (y, v) :: rest -> if y = x then Some v else assoc_opt_int x rest

let seeds_for_change ?plan net ~at ~except ~mutate =
  let no_recipient () =
    (* A leaf hearing from its only neighbor (the overwhelmingly common
       delivery in a tree) has nobody to forward to: the pre/post
       exports would be computed only to be filtered away below, so
       skip them — the stored-row mutation is all that is observable. *)
    Array.for_all (fun p -> mem_int p except) (Network.neighbors net at)
  in
  if (not (Network.has_ri net)) || no_recipient () then begin
    mutate ();
    []
  end
  else begin
    let pre = Network.outgoing_exports_except net at ~except in
    mutate ();
    let post = Network.outgoing_exports_except net at ~except in
    let tainted peer =
      match plan with
      | Some p -> Fault.tainted p ~at ~toward:peer
      | None -> false
    in
    List.map
      (fun (peer, payload) ->
        {
          sender = at;
          receiver = peer;
          payload;
          baseline = assoc_opt_int peer pre;
          tainted = tainted peer;
        })
      post
  end

let default_budget net =
  let n = Network.size net in
  let degrees = ref 0 in
  for v = 0 to n - 1 do
    degrees := !degrees + Network.degree net v
  done;
  20 * (n + !degrees)

(* The record is built only for an observer: unobserved waves are the
   common case, and they allocate nothing per delivery here. *)
let note_delivered on_event ~sender ~receiver ~significant ~forwarded =
  match on_event with
  | Some emit -> emit (Delivered { sender; receiver; significant; forwarded })
  | None -> ()

(* One update delivery, shared verbatim between the synchronous wave
   loop below and the event engine's in-flight waves: judge
   significance against the carried (or gap-corrected) baseline, store
   the row, stamp provenance, and hand the onward exports to [forward]
   — the wave loop enqueues them directly, and an engine driver turns
   each into a scheduled message. *)
let deliver_one ?plan ?on_event net ~reached ~wave_id ~forward
    { sender; receiver; payload; baseline; tainted } =
  let detect = Network.cycle_policy net = Network.Detect_recover in
  let ri = Network.ri net receiver in
  let baseline =
    match baseline with Some _ as b -> b | None -> Scheme.row ri ~peer:sender
  in
  (* A receiver that detectably missed updates from this sender (see
     {!Fault}) judges the arriving absolute aggregate against its
     stored — stale — row, not the sender-carried baseline: the gap
     means the carried "before" never made it here, and the honest
     marginal change is relative to what the receiver still holds.
     A clean delivery heals the gap; one flagged with the staleness
     bit does not — the sender's own inputs had gaps, so the payload
     proves nothing about the lost updates. *)
  let baseline =
    match plan with
    | Some p when Fault.missed p ~at:receiver ~peer:sender > 0 ->
        if not tainted then Fault.clear_missed p ~at:receiver ~peer:sender;
        Scheme.row ri ~peer:sender
    | _ -> baseline
  in
  if significant net ~baseline ~payload then begin
    let repeat = Bytes.get reached receiver <> '\000' in
    Bytes.set reached receiver '\001';
    note_delivered on_event ~sender ~receiver ~significant:true
      ~forwarded:(not (detect && repeat));
    (* Detect-and-recover: a node reached for the second time updates
       its row but breaks the cycle by not forwarding. *)
    if detect && repeat then begin
      Scheme.set_row ri ~peer:sender payload;
      Scheme.stamp_row ri ~peer:sender wave_id
    end
    else begin
      (* Align the stored row with the sender's pre-change export
         before measuring the onward change: on a cyclic overlay the
         stored row may lag the sender's current aggregate (the
         resting state is not a strict fixed point), and that
         historical drift — already judged insignificant when it
         accrued — must not be charged to this update. *)
      (match baseline with
      | Some b -> Scheme.set_row ri ~peer:sender b
      | None -> ());
      let onward =
        seeds_for_change ?plan net ~at:receiver ~except:[ sender ]
          ~mutate:(fun () -> Scheme.set_row ri ~peer:sender payload)
      in
      Scheme.stamp_row ri ~peer:sender wave_id;
      List.iter forward onward
    end
  end
  else begin
    Ri_obs.Metrics.incr m_insignificant;
    note_delivered on_event ~sender ~receiver ~significant:false
      ~forwarded:false
  end

let charge ?plan counters seed =
  counters.Message.update_messages <- counters.Message.update_messages + 1;
  counters.Message.update_wire_bytes <-
    counters.Message.update_wire_bytes + wire_bytes plan seed

(* A queued message: [Fresh] still has its fault draws (and its budget
   charge) ahead of it; [Due] is a delayed message re-entering the wave,
   already counted when it was first sent. *)
type item = Fresh of wave_seed | Due of wave_seed

let wave ?max_messages ?on_event ?plan net ~seeds ~already_reached
    ~counters =
  if Network.has_ri net then begin
    let emit =
      match on_event with Some f -> f | None -> fun (_ : event) -> ()
    in
    (* Safety valve: on an overlay whose mean degree exceeds the assumed
       fanout, deltas amplify instead of decaying (each node's
       accumulated change grows by (degree-1)/F per generation — the
       Bellman-Ford count-to-infinity failure), so an undamped no-op
       wave need not terminate.  Real deployments rate-limit and batch;
       the budget stands in for that. *)
    let budget =
      match max_messages with Some b -> b | None -> default_budget net
    in
    (* Node ids are dense [0, size): a byte map beats a hash table for
       the per-delivery reached test (no hashing, no growth). *)
    let reached = Bytes.make (Network.size net) '\000' in
    List.iter (fun v -> Bytes.set reached v '\001') already_reached;
    (* The wave advances in rounds (message generations): [current] is
       the round in flight, onward exports land in [next], and delayed
       messages sit in [delayed] until their round comes up.  With no
       plan nothing is ever delayed and the rounds concatenate into
       exactly the old single-FIFO order. *)
    let current = Queue.create () in
    let next = Queue.create () in
    List.iter (fun s -> Queue.add (Fresh s) current) seeds;
    let delayed = ref [] in
    let round = ref 0 in
    if not (Queue.is_empty current) then begin
      emit (Round { index = 0; pending = Queue.length current });
      (* Scheduled heal: the cut counts the waves it has severed and
         drops once [heal_after] is exceeded.  Only waves that actually
         send count — empty-seed calls are invisible. *)
      Option.iter Fault.note_wave_start plan
    end;
    let sent = ref 0 in
    (* The wave's own wire bytes are the counter's growth from here:
       [charge] is its only writer while the wave runs. *)
    let wire0 = counters.Message.update_wire_bytes in
    (* Provenance lineage: every row this wave rewrites is stamped with
       one logical wave id, so a later routing decision can name the
       update wave each consulted row came from.  One int write per
       delivery — cheap enough to leave ungated. *)
    let wave_id = Network.fresh_wave net in
    (* [forward] receives the onward seeds this delivery generates; the
       delivery logic itself is the shared {!deliver_one}. *)
    let deliver ~forward seed =
      deliver_one ?plan ?on_event net ~reached ~wave_id ~forward seed
    in
    let forward_next s = Queue.add (Fresh s) next in
    (* An active partition severs the link outright.  Unlike a loss
       draw this consumes no randomness (healing the cut must not shift
       any stream), and unlike a crash both endpoints are live: each
       records a detectable gap toward the other, so post-heal
       anti-entropy knows exactly which rows to reconcile. *)
    let severed p { sender; receiver; _ } =
      Fault.note_partition_drop p;
      Fault.note_missed p ~at:sender ~peer:receiver;
      Fault.note_missed p ~at:receiver ~peer:sender;
      emit (Dropped { sender; receiver; dead = false })
    in
    let more () =
      (not (Queue.is_empty current))
      || (not (Queue.is_empty next))
      || !delayed <> []
    in
    while more () && !sent < budget do
      if Queue.is_empty current then begin
        incr round;
        Queue.transfer next current;
        let due, later = List.partition (fun (r, _) -> r <= !round) !delayed in
        delayed := later;
        List.iter (fun (_, s) -> Queue.add (Due s) current) due;
        if not (Queue.is_empty current) then
          emit (Round { index = !round; pending = Queue.length current })
      end
      else
        match Queue.pop current with
        | Due seed -> (
            match plan with
            | Some p when not (Fault.same_side p seed.sender seed.receiver) ->
                (* The message was in flight when the cut activated
                   (or was delayed across it): it never lands. *)
                severed p seed
            | _ -> deliver ~forward:forward_next seed)
        | Fresh seed when not (Network.has_link net seed.sender seed.receiver)
          ->
            (* A row can outlive its link mid-churn: rows drive the
               exports, so a node whose neighbor just vanished still
               addresses it until its own cleanup runs.  There is no
               link to carry the message — nothing is sent or
               counted, and above all the departed node must not
               relay the very wave announcing its departure. *)
            ()
        | Fresh seed -> (
            incr sent;
            charge ?plan counters seed;
            match plan with
            | Some p when not (Fault.same_side p seed.sender seed.receiver) ->
                severed p seed
            | Some p when Fault.is_dead p seed.receiver ->
                Fault.note_drop p ~dead:true;
                (* No acknowledgement will ever come back from a
                   crash-stopped neighbor: the sender's failure
                   detector marks its own row toward the silent node
                   as suspect — the row still advertises a subtree
                   nothing can reach. *)
                Fault.note_missed p ~at:seed.sender ~peer:seed.receiver;
                emit
                  (Dropped
                     {
                       sender = seed.sender;
                       receiver = seed.receiver;
                       dead = true;
                     })
            | Some p when Fault.drop_update p ->
                Fault.note_drop p ~dead:false;
                Fault.note_missed p ~at:seed.receiver ~peer:seed.sender;
                emit
                  (Dropped
                     {
                       sender = seed.sender;
                       receiver = seed.receiver;
                       dead = false;
                     })
            | Some p when Fault.delay_update p ->
                let rounds = 1 + (Fault.spec p).Fault.delay_waves in
                Fault.note_delay p;
                (* Until the late message lands the receiver has a
                   detectable sequence gap, exactly as for a loss;
                   the eventual delivery heals it through the
                   missed-branch above. *)
                Fault.note_missed p ~at:seed.receiver ~peer:seed.sender;
                delayed := !delayed @ [ (!round + rounds, seed) ];
                emit
                  (Delayed
                     {
                       sender = seed.sender;
                       receiver = seed.receiver;
                       rounds;
                     })
            | _ -> deliver ~forward:forward_next seed)
    done;
    if Ri_obs.Metrics.enabled () then begin
      Ri_obs.Metrics.incr m_waves;
      Ri_obs.Metrics.add m_messages !sent;
      Ri_obs.Metrics.add m_wire_bytes
        (counters.Message.update_wire_bytes - wire0);
      if more () then Ri_obs.Metrics.incr m_budget_stops
    end
  end

let propagate ?on_event ?plan net ~origin ~counters =
  if Network.has_ri net then
    let tainted peer =
      match plan with
      | Some p -> Fault.tainted p ~at:origin ~toward:peer
      | None -> false
    in
    let seeds =
      List.map
        (fun (peer, payload) ->
          {
            sender = origin;
            receiver = peer;
            payload;
            baseline = None;
            tainted = tainted peer;
          })
        (Network.outgoing_exports net origin)
    in
    wave ?on_event ?plan net ~seeds ~already_reached:[ origin ] ~counters

let local_change ?on_event ?plan net ~origin ~summary ~counters =
  let seeds =
    seeds_for_change ?plan net ~at:origin ~except:[] ~mutate:(fun () ->
        Network.set_local_summary net origin summary)
  in
  wave ?on_event ?plan net ~seeds ~already_reached:[ origin ] ~counters

(* One periodic anti-entropy round: every live, connected link exchanges
   digests (per-row wave stamps + link sequence state), and links with
   recorded gaps or a dirty endpoint escalate to a full two-way
   aggregate exchange followed by an onward wave.  Repair is triggered
   by the gap ledger, never by comparing row content against the
   neighbor's current aggregate: on a cyclic overlay the resting state
   is not a strict fixed point (see [deliver]'s baseline-alignment
   comment), so content-chasing would re-inject historical drift and
   count to infinity.  Gap-free divergence downstream of a repaired link
   heals through the onward waves' ordinary significance test. *)
let anti_entropy ?on_event ~plan net ~counters =
  if not (Network.has_ri net) then 0
  else begin
    let emit =
      match on_event with Some f -> f | None -> fun (_ : event) -> ()
    in
    let n = Network.size net in
    let repairs = ref 0 in
    Ri_obs.Metrics.incr m_ae_rounds;
    (* Dirt raised mid-round (corpse detection below) must survive to
       the next round: links ordered before the discovery were digested
       against the old state.  Only dirt present at round start is spent
       by this round. *)
    let dirty_at_start = Array.init n (fun v -> Fault.dirty plan v) in
    for u = 0 to n - 1 do
      if not (Fault.is_dead plan u) then
        Array.iter
          (fun v ->
            if v > u then
              if Fault.is_dead plan v then begin
                (* The digest probe gets no reply: the periodic exchange
                   doubles as a failure detector, without waiting for a
                   query to stumble over the corpse. *)
                counters.Message.update_messages <-
                  counters.Message.update_messages + 1;
                counters.Message.update_wire_bytes <-
                  counters.Message.update_wire_bytes + Message.wire_digest_bytes;
                if Fault.learn_dead plan ~at:u ~dead:v then begin
                  (match Scheme.row (Network.ri net u) ~peer:v with
                  | Some _ ->
                      Scheme.remove_row (Network.ri net u) ~peer:v;
                      Fault.note_repair plan
                  | None -> ());
                  Fault.set_dirty plan u;
                  (* Count the detection as a repair: u's exports just
                     changed, so the caller must run at least one more
                     round to spend the dirt on u's other links. *)
                  incr repairs
                end;
                (* The row is gone; a standing gap toward the corpse
                   would taint u's exports forever. *)
                Fault.clear_missed plan ~at:u ~peer:v
              end
              else if Fault.same_side plan u v then begin
                counters.Message.update_messages <-
                  counters.Message.update_messages + 2;
                counters.Message.update_wire_bytes <-
                  counters.Message.update_wire_bytes
                  + (2 * Message.wire_digest_bytes);
                let needs_repair =
                  Fault.missed plan ~at:u ~peer:v > 0
                  || Fault.missed plan ~at:v ~peer:u > 0
                  || Fault.dirty plan u || Fault.dirty plan v
                in
                if needs_repair then begin
                  (* Trustworthiness is judged on the pre-exchange gap
                     state: an aggregate computed from gapped inputs
                     cannot certify the peer's row even though it is
                     about to be stored. *)
                  let u_trust = not (Fault.tainted plan ~at:u ~toward:v) in
                  let v_trust = not (Fault.tainted plan ~at:v ~toward:u) in
                  let to_v = Network.export_to net u ~peer:v in
                  let to_u = Network.export_to net v ~peer:u in
                  counters.Message.update_messages <-
                    counters.Message.update_messages + 2;
                  counters.Message.update_wire_bytes <-
                    counters.Message.update_wire_bytes
                    + Message.wire_full_bytes
                        ~entries:(Scheme.payload_entries to_v)
                    + Message.wire_full_bytes
                        ~entries:(Scheme.payload_entries to_u);
                  let wave_id = Network.fresh_wave net in
                  let seeds_v =
                    seeds_for_change ~plan net ~at:v ~except:[ u ]
                      ~mutate:(fun () ->
                        Scheme.set_row (Network.ri net v) ~peer:u to_v)
                  in
                  Scheme.stamp_row (Network.ri net v) ~peer:u wave_id;
                  let seeds_u =
                    seeds_for_change ~plan net ~at:u ~except:[ v ]
                      ~mutate:(fun () ->
                        Scheme.set_row (Network.ri net u) ~peer:v to_u)
                  in
                  Scheme.stamp_row (Network.ri net u) ~peer:v wave_id;
                  if v_trust then Fault.clear_missed plan ~at:u ~peer:v;
                  if u_trust then Fault.clear_missed plan ~at:v ~peer:u;
                  Fault.note_repair plan;
                  Ri_obs.Metrics.incr m_ae_repairs;
                  incr repairs;
                  emit (Repaired { u; v });
                  (* Push the corrected aggregates onward so downstream
                     rows with no recorded gap converge through the
                     normal significance-damped wave. *)
                  wave ?on_event ~plan net
                    ~seeds:(seeds_u @ seeds_v)
                    ~already_reached:[ u; v ] ~counters
                end
              end)
          (Network.neighbors net u)
    done;
    (* Every live link has been digested against round-start dirt, so
       that dirt is spent; dirt raised mid-round keeps its flag (unless
       a later link exchange of this round already consumed it — the
       ledger still covers the rest). *)
    for v = 0 to n - 1 do
      if dirty_at_start.(v) && not (Fault.is_dead plan v) then
        Fault.clear_dirty plan v
    done;
    !repairs
  end

module Batcher = struct
  type nonrec t = {
    net : Network.t;
    origin : int;
    mutable latest : Ri_content.Summary.t option;
    mutable pending : int;
  }

  let create net ~origin =
    if origin < 0 || origin >= Network.size net then
      invalid_arg "Update.Batcher.create: origin out of range";
    { net; origin; latest = None; pending = 0 }

  let note_local_change t summary =
    t.latest <- Some summary;
    t.pending <- t.pending + 1

  let pending t = t.pending

  let flush t ~counters =
    match t.latest with
    | None -> ()
    | Some summary ->
        t.latest <- None;
        t.pending <- 0;
        local_change t.net ~origin:t.origin ~summary ~counters
end
