(* Discrete-event scheduler: a logical nanosecond clock, a binary-heap
   event queue ordered by (time, seq), and per-node FIFO mailboxes with
   a deterministic service model.  One engine drives one trial, on one
   domain; cross-trial parallelism stays at the pool layer, so nothing
   here needs synchronization and the (seed, trial, seq) determinism
   contract holds by construction. *)

type handler = unit -> unit

(* Struct-of-arrays binary min-heap over (time, seq).  [seq] is
   assigned at push in program order, so equal-time events pop exactly
   in the order they were scheduled — the tiebreak that makes a
   zero-latency schedule replay the synchronous execution order.  Each
   slot holds what [run] needs to dispatch the event without a closure
   of its own: its kind (a caller's raw event, a message landing in a
   mailbox, or a service completion), the node, the completed
   message's queue wait and the caller's handler.  Sifts move a hole
   instead of swapping, and nothing is allocated per event once the
   arrays have grown to the peak event count. *)
module Heap = struct
  type kind = Raw | Arrive | Complete

  type t = {
    mutable time : int array;
    mutable seq : int array;
    mutable kind : kind array;
    mutable dst : int array;
    mutable wait : int array;
    mutable run : handler array;
    mutable len : int;
  }

  let create () =
    let cap = 256 in
    {
      time = Array.make cap 0;
      seq = Array.make cap 0;
      kind = Array.make cap Raw;
      dst = Array.make cap 0;
      wait = Array.make cap 0;
      run = Array.make cap ignore;
      len = 0;
    }

  let grow t =
    let cap = 2 * Array.length t.time in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.time <- extend t.time 0;
    t.seq <- extend t.seq 0;
    t.kind <- extend t.kind Raw;
    t.dst <- extend t.dst 0;
    t.wait <- extend t.wait 0;
    t.run <- extend t.run ignore

  (* Slot [i] pops before the event keyed [(time, seq)]. *)
  let before t i ~time ~seq =
    t.time.(i) < time || (t.time.(i) = time && t.seq.(i) < seq)

  let move t ~src ~dst:i =
    t.time.(i) <- t.time.(src);
    t.seq.(i) <- t.seq.(src);
    t.kind.(i) <- t.kind.(src);
    t.dst.(i) <- t.dst.(src);
    t.wait.(i) <- t.wait.(src);
    t.run.(i) <- t.run.(src)

  let set t i ~time ~seq kind ~dst ~wait run =
    t.time.(i) <- time;
    t.seq.(i) <- seq;
    t.kind.(i) <- kind;
    t.dst.(i) <- dst;
    t.wait.(i) <- wait;
    t.run.(i) <- run

  let push t ~time ~seq kind ~dst ~wait run =
    if t.len = Array.length t.time then grow t;
    (* Sift the hole up from the new last slot. *)
    let i = ref t.len in
    t.len <- t.len + 1;
    while !i > 0 && not (before t ((!i - 1) / 2) ~time ~seq) do
      let p = (!i - 1) / 2 in
      move t ~src:p ~dst:!i;
      i := p
    done;
    set t !i ~time ~seq kind ~dst ~wait run

  (* Remove slot 0 (the caller has read it): sift the last event down
     from the root, then clear the vacated slot's handler so the heap
     does not keep it alive. *)
  let drop_min t =
    t.len <- t.len - 1;
    let n = t.len in
    if n > 0 then begin
      let time = t.time.(n) and seq = t.seq.(n) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= n then continue := false
        else begin
          let c =
            if l + 1 < n && before t (l + 1) ~time:t.time.(l) ~seq:t.seq.(l)
            then l + 1
            else l
          in
          if before t c ~time ~seq then begin
            move t ~src:c ~dst:!i;
            i := c
          end
          else continue := false
        end
      done;
      move t ~src:n ~dst:!i
    end;
    t.run.(n) <- ignore
end

(* Per-message queued entry: the handler plus the logical time it
   entered the mailbox, so the wait it accrued is known when service
   finally starts. *)
type queued = { enq : int; run : handler }

type t = {
  mutable now : int;
  mutable seq : int;
  heap : Heap.t;
  service_ns : int;
  link_ns : int;
  (* Mailboxes: a node services one message at a time; arrivals while
     busy wait in FIFO order. *)
  inbox : queued Queue.t array;
  busy : bool array;
  mutable processed : int;
  mutable backlog : int;  (* waiting messages across all mailboxes *)
  (* Per-node attribution, accumulated in flat arrays — the hotspot
     profiler's raw feed.  Always on: plain int stores on paths that
     already pay a heap operation per event, and the engine only exists
     while traffic actually flows. *)
  n_arrivals : int array;
  n_completions : int array;
  n_busy_ns : int array;
  n_wait_ns : int array;
  n_depth_sum : int array;  (* backlog seen by each arriving message *)
  n_peak : int array;
  (* Queue wait of the delivery whose handler is currently running;
     meaningful only inside a mailbox-delivered handler. *)
  mutable last_wait : int;
}

let ns_per_s = 1_000_000_000.

let of_seconds s = int_of_float (Float.round (s *. ns_per_s))

let to_seconds ns = float_of_int ns /. ns_per_s

let create ?(service_ns = 0) ?(link_ns = 0) ~nodes () =
  if nodes <= 0 then invalid_arg "Engine.create: nodes must be positive";
  if service_ns < 0 || link_ns < 0 then
    invalid_arg "Engine.create: negative latency";
  {
    now = 0;
    seq = 0;
    heap = Heap.create ();
    service_ns;
    link_ns;
    inbox = Array.init nodes (fun _ -> Queue.create ());
    busy = Array.make nodes false;
    processed = 0;
    backlog = 0;
    n_arrivals = Array.make nodes 0;
    n_completions = Array.make nodes 0;
    n_busy_ns = Array.make nodes 0;
    n_wait_ns = Array.make nodes 0;
    n_depth_sum = Array.make nodes 0;
    n_peak = Array.make nodes 0;
    last_wait = 0;
  }

let now t = t.now

let nodes t = Array.length t.inbox

let service_ns t = t.service_ns

let link_ns t = t.link_ns

let processed t = t.processed

let backlog t = t.backlog

let last_wait_ns t = t.last_wait

(* Global depth statistics are folds over the per-node arrays; both use
   the same convention as the per-node fields — waiting messages only,
   the one in service excluded. *)
let queue_peak t = Array.fold_left max 0 t.n_peak

let queue_mean t =
  let arrivals = Array.fold_left ( + ) 0 t.n_arrivals in
  if arrivals = 0 then 0.
  else
    float_of_int (Array.fold_left ( + ) 0 t.n_depth_sum)
    /. float_of_int arrivals

type node_stat = {
  s_arrivals : int;
  s_completions : int;
  s_busy_ns : int;
  s_wait_ns : int;
  s_depth_sum : int;
  s_peak : int;
}

let node_stat t v =
  if v < 0 || v >= Array.length t.inbox then
    invalid_arg "Engine.node_stat: node out of range";
  {
    s_arrivals = t.n_arrivals.(v);
    s_completions = t.n_completions.(v);
    s_busy_ns = t.n_busy_ns.(v);
    s_wait_ns = t.n_wait_ns.(v);
    s_depth_sum = t.n_depth_sum.(v);
    s_peak = t.n_peak.(v);
  }

let push t ~at kind ~dst ~wait run =
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push t.heap ~time:at ~seq kind ~dst ~wait run

let schedule t ~at run =
  if at < t.now then invalid_arg "Engine.schedule: event in the past";
  push t ~at Heap.Raw ~dst:0 ~wait:0 run

(* Service completion at [dst]: attribute the finished message's wait
   and busy time to the node, process it, then start on the next one
   waiting, if any (its wait = now - enqueue time). *)
let complete t dst ~wait run =
  t.processed <- t.processed + 1;
  t.n_completions.(dst) <- t.n_completions.(dst) + 1;
  t.n_busy_ns.(dst) <- t.n_busy_ns.(dst) + t.service_ns;
  t.n_wait_ns.(dst) <- t.n_wait_ns.(dst) + wait;
  t.last_wait <- wait;
  run ();
  if Queue.is_empty t.inbox.(dst) then t.busy.(dst) <- false
  else begin
    let next = Queue.pop t.inbox.(dst) in
    t.backlog <- t.backlog - 1;
    push t
      ~at:(t.now + t.service_ns)
      Heap.Complete ~dst ~wait:(t.now - next.enq) next.run
  end

(* A message lands in [dst]'s mailbox: start service now if the node is
   idle, otherwise join the FIFO.  The backlog it sees — waiting
   messages, excluding any in service — feeds both the per-node depth
   mean and the peak. *)
let arrive t dst run =
  t.n_arrivals.(dst) <- t.n_arrivals.(dst) + 1;
  let depth = Queue.length t.inbox.(dst) in
  t.n_depth_sum.(dst) <- t.n_depth_sum.(dst) + depth;
  if t.busy.(dst) then begin
    Queue.add { enq = t.now; run } t.inbox.(dst);
    t.backlog <- t.backlog + 1;
    if depth + 1 > t.n_peak.(dst) then t.n_peak.(dst) <- depth + 1
  end
  else begin
    t.busy.(dst) <- true;
    push t ~at:(t.now + t.service_ns) Heap.Complete ~dst ~wait:0 run
  end

let inject t ~at ~dst run =
  if dst < 0 || dst >= Array.length t.inbox then
    invalid_arg "Engine.inject: node out of range";
  if at < t.now then invalid_arg "Engine.inject: event in the past";
  push t ~at Heap.Arrive ~dst ~wait:0 run

let send t ~dst run =
  if dst < 0 || dst >= Array.length t.inbox then
    invalid_arg "Engine.send: node out of range";
  if t.link_ns = 0 then arrive t dst run
  else push t ~at:(t.now + t.link_ns) Heap.Arrive ~dst ~wait:0 run

(* Pop and dispatch by kind until the heap is empty: a landing message
   joins its mailbox, a completion runs its handler, a raw event runs
   directly. *)
let run t =
  let h = t.heap in
  while h.Heap.len > 0 do
    let kind = h.Heap.kind.(0)
    and dst = h.Heap.dst.(0)
    and wait = h.Heap.wait.(0)
    and handler = h.Heap.run.(0) in
    t.now <- h.Heap.time.(0);
    Heap.drop_min h;
    match kind with
    | Heap.Raw -> handler ()
    | Heap.Arrive -> arrive t dst handler
    | Heap.Complete -> complete t dst ~wait handler
  done
