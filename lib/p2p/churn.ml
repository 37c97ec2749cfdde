open Ri_core

let connect net u v ~counters =
  Network.add_link net u v;
  if Network.has_ri net then begin
    (* Initial exchange: each side aggregates its RI (the other side has
       no row yet, so no exclusion applies) and sends it across. *)
    let to_v = Network.export_to net u ~peer:v in
    let to_u = Network.export_to net v ~peer:u in
    counters.Message.update_messages <- counters.Message.update_messages + 2;
    (* Both endpoints now reach more documents; tell everyone else,
       pairing each outgoing aggregate with its pre-connection value so
       receivers judge exactly the connection's effect. *)
    let seeds_u =
      Update.seeds_for_change net ~at:u ~except:[ v ] ~mutate:(fun () ->
          Scheme.set_row (Network.ri net u) ~peer:v to_u)
    in
    let seeds_v =
      Update.seeds_for_change net ~at:v ~except:[ u ] ~mutate:(fun () ->
          Scheme.set_row (Network.ri net v) ~peer:u to_v)
    in
    Update.wave net ~seeds:(seeds_u @ seeds_v) ~already_reached:[ u; v ]
      ~counters
  end

type connect_result = Connected | Rejected_cycle

let reachable net src dst =
  let n = Network.size net in
  let seen = Array.make n false in
  seen.(src) <- true;
  let q = Queue.create () in
  Queue.add src q;
  let found = ref false in
  while not (!found || Queue.is_empty q) do
    let u = Queue.pop q in
    Array.iter
      (fun v ->
        if v = dst then found := true
        else if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v q
        end)
      (Network.neighbors net u)
  done;
  !found

let connect_avoiding_cycles net u v ~counters =
  (* One probe message to test connectivity (in a deployment this is a
     path-discovery exchange; we charge the minimum). *)
  counters.Message.update_messages <- counters.Message.update_messages + 1;
  if reachable net u v then Rejected_cycle
  else begin
    connect net u v ~counters;
    Connected
  end

let drop_side net a b ~counters =
  if Network.has_ri net then begin
    let seeds =
      Update.seeds_for_change net ~at:a ~except:[ b ] ~mutate:(fun () ->
          Scheme.remove_row (Network.ri net a) ~peer:b)
    in
    Update.wave net ~seeds ~already_reached:[ a ] ~counters
  end

let disconnect_link net u v ~counters =
  drop_side net u v ~counters;
  drop_side net v u ~counters;
  Network.remove_link net u v

let disconnect_node net v ~counters =
  let former = Array.to_list (Network.neighbors net v) in
  (* Sever every link before any announcement: the leaving node takes
     no part in the protocol, and on a cyclic overlay a still-attached
     leaver would relay the very waves announcing its departure,
     re-creating the rows its ex-neighbors just removed. *)
  List.iter (fun u -> Network.remove_link net u v) former;
  (* The former neighbors detect the loss, clean up and spread the news,
     without any participation of the leaving node. *)
  List.iter
    (fun u ->
      if Network.has_ri net then begin
        let seeds =
          Update.seeds_for_change net ~at:u ~except:[] ~mutate:(fun () ->
              Scheme.remove_row (Network.ri net u) ~peer:v)
        in
        Update.wave net ~seeds ~already_reached:[ u ] ~counters
      end)
    former;
  (* The departed node itself starts over: when it later rejoins, it
     must look like "a newly connected node [that] sends a summary of
     its local index" (Section 5.1), not one advertising a network it
     can no longer reach.  Local cleanup costs no messages. *)
  if Network.has_ri net then begin
    let ri = Network.ri net v in
    List.iter (fun peer -> Scheme.remove_row ri ~peer) (Scheme.peers ri)
  end;
  former

(* Crash-recovery row persistence: a compact binary image of one node's
   RI rows.  Floats are stored as their IEEE bit patterns,
   little-endian, and rows in increasing peer order, so persist ->
   restore round-trips bit-identically — the determinism contract
   extends to rejoin.  The layout: the magic, a row count, then per row
   its peer, a payload tag (0 vector, 1 per-hop vector; the latter with
   its hop count) and each summary as its total, its width and its
   per-topic cells. *)

type rejoin = Amnesiac | Stale_state of Bytes.t

let rows_magic = "RIROWS01"

let add_f64 buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)

let add_i32 buf x = Buffer.add_int32_le buf (Int32.of_int x)

let add_summary buf (s : Ri_content.Summary.t) =
  add_f64 buf s.Ri_content.Summary.total;
  add_i32 buf (Array.length s.Ri_content.Summary.by_topic);
  Array.iter (add_f64 buf) s.Ri_content.Summary.by_topic

let add_payload buf = function
  | Scheme.Vector s ->
      add_i32 buf 0;
      add_summary buf s
  | Scheme.Hop_vector hops ->
      add_i32 buf 1;
      add_i32 buf (Array.length hops);
      Array.iter (add_summary buf) hops

let persist_rows net v =
  if v < 0 || v >= Network.size net then
    invalid_arg "Churn.persist_rows: node out of range";
  if not (Network.has_ri net) then
    invalid_arg "Churn.persist_rows: network has no routing indices";
  let ri = Network.ri net v in
  let peers = Scheme.peers ri in
  let buf = Buffer.create 256 in
  Buffer.add_string buf rows_magic;
  add_i32 buf (List.length peers);
  List.iter
    (fun peer ->
      match Scheme.row ri ~peer with
      | Some payload ->
          add_i32 buf peer;
          add_payload buf payload
      | None -> assert false)
    peers;
  Buffer.to_bytes buf

let corrupt what = invalid_arg ("Churn.recover: corrupt stale state: " ^ what)

let read_i32 bytes pos =
  if !pos + 4 > Bytes.length bytes then corrupt "truncated image";
  let x = Int32.to_int (Bytes.get_int32_le bytes !pos) in
  pos := !pos + 4;
  x

(* Every cell is a document count: finite and non-negative. *)
let read_cell bytes pos =
  if !pos + 8 > Bytes.length bytes then corrupt "truncated image";
  let x = Int64.float_of_bits (Bytes.get_int64_le bytes !pos) in
  pos := !pos + 8;
  if not (Float.is_finite x) then corrupt "non-finite cell";
  if x < 0. then corrupt "negative cell";
  x

let read_summary bytes pos ~width =
  let total = read_cell bytes pos in
  if read_i32 bytes pos <> width then corrupt "summary width";
  let by_topic = Array.init width (fun _ -> read_cell bytes pos) in
  { Ri_content.Summary.total; by_topic }

(* A payload of the node's own row shape: a vector, or [hops] summaries
   per row. *)
let read_payload bytes pos ~width ~hops =
  match (read_i32 bytes pos, hops) with
  | 0, None -> Scheme.Vector (read_summary bytes pos ~width)
  | 1, Some hops ->
      if read_i32 bytes pos <> hops then corrupt "hop count";
      Scheme.Hop_vector (Array.init hops (fun _ -> read_summary bytes pos ~width))
  | (0 | 1), _ -> corrupt "payload shape"
  | _ -> corrupt "unknown payload tag"

(* The whole image, decoded and checked against the index [ri] it will
   be restored into, before anything is mutated: the rows in image
   order, each with its peer. *)
let decode_rows ri bytes =
  let magic_len = String.length rows_magic in
  if
    Bytes.length bytes < magic_len
    || not (String.equal (Bytes.sub_string bytes 0 magic_len) rows_magic)
  then corrupt "bad magic";
  let width = Scheme.width ri in
  let hops =
    match Scheme.kind ri with
    | Scheme.Cri_kind | Scheme.Eri_kind _ -> None
    | Scheme.Hri_kind { horizon; _ } -> Some horizon
    | Scheme.Hybrid_kind { horizon; _ } -> Some (horizon + 1)
  in
  let pos = ref magic_len in
  let count = read_i32 bytes pos in
  if count < 0 then corrupt "negative row count";
  let rows = ref [] in
  for _ = 1 to count do
    let peer = read_i32 bytes pos in
    let payload = read_payload bytes pos ~width ~hops in
    rows := (peer, payload) :: !rows
  done;
  if !pos <> Bytes.length bytes then corrupt "trailing bytes";
  List.rev !rows

let crash_stop net v ~plan =
  if v < 0 || v >= Network.size net then
    invalid_arg "Churn.crash_stop: node out of range";
  Fault.kill plan v

let detect_crash net u ~dead ~plan =
  if Fault.learn_dead plan ~at:u ~dead then begin
    (if Network.has_ri net then
       let ri = Network.ri net u in
       match Scheme.row ri ~peer:dead with
       | Some _ ->
           Scheme.remove_row ri ~peer:dead;
           Fault.note_repair plan
       | None -> ());
    (* The row is gone; a gap recorded toward the corpse would taint
       [u]'s exports forever (nothing can ever heal it), poisoning
       every downstream trust judgement. *)
    Fault.clear_missed plan ~at:u ~peer:dead;
    Fault.set_dirty plan u;
    true
  end
  else false

let reconcile net u v ~plan ~counters =
  (* Death certificates ride along for free: each side applies the
     other's presumed-dead list, removing any row it still holds for a
     newly learned corpse, and becomes dirty in turn so the news keeps
     spreading lazily. *)
  let gossip src dst =
    List.iter
      (fun corpse ->
        if corpse <> dst && Fault.learn_dead plan ~at:dst ~dead:corpse then begin
          (if Network.has_ri net then
             let ri = Network.ri net dst in
             match Scheme.row ri ~peer:corpse with
             | Some _ ->
                 Scheme.remove_row ri ~peer:corpse;
                 Fault.note_repair plan
             | None -> ());
          Fault.clear_missed plan ~at:dst ~peer:corpse;
          Fault.set_dirty plan dst
        end)
      (Fault.known_dead_of plan src)
  in
  gossip u v;
  gossip v u;
  if Network.has_ri net then begin
    (* Full-state exchange across the link, like the initial handshake
       of {!connect}: two update messages, both rows rewritten from the
       current exports, any recorded gaps healed.  No onward wave — the
       repair stays lazy; each further link reconciles on its own first
       contact. *)
    counters.Message.update_messages <- counters.Message.update_messages + 2;
    let to_v = Network.export_to net u ~peer:v in
    let to_u = Network.export_to net v ~peer:u in
    Scheme.set_row (Network.ri net v) ~peer:u to_v;
    Scheme.set_row (Network.ri net u) ~peer:v to_u;
    (* The exchanged aggregates are only as good as their inputs: a gap
       heals only when the counterpart's export was built from gap-free
       rows, exactly as for a wave delivery.  Both taints are judged
       against the pre-exchange state the exports were computed from. *)
    let u_trustworthy = not (Fault.tainted plan ~at:u ~toward:v) in
    let v_trustworthy = not (Fault.tainted plan ~at:v ~toward:u) in
    if v_trustworthy then Fault.clear_missed plan ~at:u ~peer:v;
    if u_trustworthy then Fault.clear_missed plan ~at:v ~peer:u;
    Fault.note_repair plan
  end

let recover ?on_event net v ~rejoin ~plan ~counters =
  if v < 0 || v >= Network.size net then
    invalid_arg "Churn.recover: node out of range";
  if not (Fault.is_dead plan v) then
    invalid_arg "Churn.recover: node is not crash-stopped";
  (* A stale image is checked whole before anything changes: a refused
     image leaves the node crash-stopped with its rows as they were. *)
  let stale =
    match rejoin with
    | Stale_state bytes when Network.has_ri net ->
        Some (decode_rows (Network.ri net v) bytes)
    | Stale_state _ | Amnesiac -> None
  in
  (* Revival first: it revokes every death certificate naming [v], so
     the re-announcement below cannot be undone by certificate gossip. *)
  Fault.revive plan v;
  (if Network.has_ri net then
     let ri = Network.ri net v in
     List.iter (fun peer -> Scheme.remove_row ri ~peer) (Scheme.peers ri);
     match stale with
     | None ->
         (* The crash lost the RI.  The node starts from its local index
            only, and knows it: every live link opens a recorded gap, so
            ranking demotes the missing knowledge and anti-entropy (or
            the next clean wave) refills the rows. *)
         Array.iter
           (fun u ->
             if not (Fault.is_dead plan u) then
               Fault.note_missed plan ~at:v ~peer:u)
           (Network.neighbors net v)
     | Some rows ->
         (* Replay the persisted image.  The rows are whatever was true
            at persist time — possibly badly stale; the dirty mark and
            the re-announcement below start the repair.  A peer the
            node is no longer linked to gets no row: rows drive the
            exports, and a stale row toward a vanished link would
            re-advertise an unreachable subtree. *)
         List.iter
           (fun (peer, payload) ->
             if peer >= 0 && peer < Network.size net && Network.has_link net v peer
             then Scheme.set_row ri ~peer payload)
           rows);
  Fault.set_dirty plan v;
  (* Re-announce: "a newly connected node sends a summary of its local
     index" (Section 5.1) — here a full propagation from the rejoined
     node, subject to the plan's faults like any other wave.  Dead or
     cross-cut neighbors miss it and stay for anti-entropy. *)
  Update.propagate ?on_event ~plan net ~origin:v ~counters
