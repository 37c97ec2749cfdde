(* Discrete-event scheduler: a logical nanosecond clock, an event queue
   ordered by (time, seq) and split by delay, and per-node FIFO
   mailboxes with a deterministic service model.  One engine drives one
   trial, on one domain; cross-trial parallelism stays at the pool
   layer, so nothing here needs synchronization and the (seed, trial,
   seq) determinism contract holds by construction. *)

type handler = unit -> unit

(* Struct-of-arrays binary min-heap over (time, seq) for the events
   whose time the caller picks: raw {!schedule} events and {!inject}ed
   messages.  [seq] is assigned at push in program order, so
   equal-time events pop exactly in the order they were scheduled — the
   tiebreak that makes a zero-latency schedule replay the synchronous
   execution order.  Each slot holds what [run] needs to dispatch the
   event without a closure of its own: its kind (a caller's raw event
   or a message landing in a mailbox), the node and the caller's
   handler.  Sifts move a hole instead of swapping, and nothing is
   allocated per event once the arrays have grown to the peak event
   count. *)
module Heap = struct
  type kind = Raw | Arrive

  type t = {
    mutable time : int array;
    mutable seq : int array;
    mutable kind : kind array;
    mutable dst : int array;
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
    t.run <- extend t.run ignore

  (* Slot [i] pops before the event keyed [(time, seq)]. *)
  let before t i ~time ~seq =
    t.time.(i) < time || (t.time.(i) = time && t.seq.(i) < seq)

  let move t ~src ~dst:i =
    t.time.(i) <- t.time.(src);
    t.seq.(i) <- t.seq.(src);
    t.kind.(i) <- t.kind.(src);
    t.dst.(i) <- t.dst.(src);
    t.run.(i) <- t.run.(src)

  let set t i ~time ~seq kind ~dst run =
    t.time.(i) <- time;
    t.seq.(i) <- seq;
    t.kind.(i) <- kind;
    t.dst.(i) <- dst;
    t.run.(i) <- run

  let push t ~time ~seq kind ~dst run =
    if t.len = Array.length t.time then grow t;
    (* Sift the hole up from the new last slot. *)
    let i = ref t.len in
    t.len <- t.len + 1;
    while !i > 0 && not (before t ((!i - 1) / 2) ~time ~seq) do
      let p = (!i - 1) / 2 in
      move t ~src:p ~dst:!i;
      i := p
    done;
    set t !i ~time ~seq kind ~dst run

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

(* A FIFO ring of the events that share one constant delay: messages
   crossing a link, due [link_ns] after they are sent, or service
   completions, due [service_ns] after service starts.  Each is pushed
   at [now + delay] with a fresh [seq], and [now] never decreases, so
   the ring is born sorted by (time, seq): its head is its least event,
   and a push or a pop costs O(1) however many events are pending.  The
   capacity is a power of two; [wait] (a completed message's queue
   wait) is kept by the completion ring only, and is empty in the link
   ring. *)
module Ring = struct
  type t = {
    mutable time : int array;
    mutable seq : int array;
    mutable dst : int array;
    mutable wait : int array;
    mutable run : handler array;
    mutable head : int;
    mutable len : int;
  }

  let create ~waits =
    let cap = 64 in
    {
      time = Array.make cap 0;
      seq = Array.make cap 0;
      dst = Array.make cap 0;
      wait = Array.make (if waits then cap else 0) 0;
      run = Array.make cap ignore;
      head = 0;
      len = 0;
    }

  (* Double a full ring, its events unwrapped into slots [0, len). *)
  let grow t =
    let cap = Array.length t.time in
    let unwrap a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a t.head b 0 (cap - t.head);
      Array.blit a 0 b (cap - t.head) t.head;
      b
    in
    t.time <- unwrap t.time 0;
    t.seq <- unwrap t.seq 0;
    t.dst <- unwrap t.dst 0;
    if Array.length t.wait > 0 then t.wait <- unwrap t.wait 0;
    t.run <- unwrap t.run ignore;
    t.head <- 0

  (* Append an event; returns its slot. *)
  let push t ~time ~seq ~dst run =
    if t.len = Array.length t.time then grow t;
    let i = (t.head + t.len) land (Array.length t.time - 1) in
    t.time.(i) <- time;
    t.seq.(i) <- seq;
    t.dst.(i) <- dst;
    t.run.(i) <- run;
    t.len <- t.len + 1;
    i

  (* The ring holds an event that pops before the one keyed
     [(time, seq)]. *)
  let head_before t ~time ~seq =
    t.len > 0
    &&
    let i = t.head in
    t.time.(i) < time || (t.time.(i) = time && t.seq.(i) < seq)

  (* Remove the head (the caller has read it) and clear its handler so
     the ring does not keep it alive. *)
  let drop t =
    t.run.(t.head) <- ignore;
    t.head <- (t.head + 1) land (Array.length t.time - 1);
    t.len <- t.len - 1
end

(* Per-message queued entry: the handler plus the logical time it
   entered the mailbox, so the wait it accrued is known when service
   finally starts. *)
type queued = { enq : int; run : handler }

type t = {
  mutable now : int;
  mutable seq : int;
  (* The event queue, by source: events the caller timed, messages
     crossing a link and service completions.  [run] pops the least
     (time, seq) of the three. *)
  heap : Heap.t;
  links : Ring.t;
  services : Ring.t;
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
     already pay a queue operation per event, and the engine only exists
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
    links = Ring.create ~waits:false;
    services = Ring.create ~waits:true;
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

let next_seq t =
  let seq = t.seq in
  t.seq <- seq + 1;
  seq

let schedule t ~at run =
  if at < t.now then invalid_arg "Engine.schedule: event in the past";
  Heap.push t.heap ~time:at ~seq:(next_seq t) Heap.Raw ~dst:0 run

(* Start servicing a message at [dst]: it completes [service_ns] from
   now, having waited [wait] in the mailbox. *)
let start t dst ~wait run =
  let s = t.services in
  let i =
    Ring.push s ~time:(t.now + t.service_ns) ~seq:(next_seq t) ~dst run
  in
  s.Ring.wait.(i) <- wait

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
    start t dst ~wait:(t.now - next.enq) next.run
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
    start t dst ~wait:0 run
  end

let inject t ~at ~dst run =
  if dst < 0 || dst >= Array.length t.inbox then
    invalid_arg "Engine.inject: node out of range";
  if at < t.now then invalid_arg "Engine.inject: event in the past";
  Heap.push t.heap ~time:at ~seq:(next_seq t) Heap.Arrive ~dst run

let send t ~dst run =
  if dst < 0 || dst >= Array.length t.inbox then
    invalid_arg "Engine.send: node out of range";
  if t.link_ns = 0 then arrive t dst run
  else
    ignore
      (Ring.push t.links ~time:(t.now + t.link_ns) ~seq:(next_seq t) ~dst run)

type source = Empty | Timed | Links | Services

(* Pop the least (time, seq) of the heap's root and the two rings'
   heads — [seq] is unique, so they never tie — and dispatch it until
   all three are empty: a landing message joins its mailbox, a
   completion runs its handler, a raw event runs directly. *)
let run t =
  let h = t.heap and links = t.links and services = t.services in
  let continue = ref true in
  while !continue do
    let src = ref Empty and time = ref max_int and seq = ref max_int in
    if h.Heap.len > 0 then begin
      src := Timed;
      time := h.Heap.time.(0);
      seq := h.Heap.seq.(0)
    end;
    if Ring.head_before links ~time:!time ~seq:!seq then begin
      src := Links;
      time := links.Ring.time.(links.Ring.head);
      seq := links.Ring.seq.(links.Ring.head)
    end;
    if Ring.head_before services ~time:!time ~seq:!seq then begin
      src := Services;
      time := services.Ring.time.(services.Ring.head)
    end;
    match !src with
    | Empty -> continue := false
    | Timed ->
        let kind = h.Heap.kind.(0)
        and dst = h.Heap.dst.(0)
        and handler = h.Heap.run.(0) in
        t.now <- !time;
        Heap.drop_min h;
        (match kind with
        | Heap.Raw -> handler ()
        | Heap.Arrive -> arrive t dst handler)
    | Links ->
        let i = links.Ring.head in
        let dst = links.Ring.dst.(i) and handler = links.Ring.run.(i) in
        t.now <- !time;
        Ring.drop links;
        arrive t dst handler
    | Services ->
        let i = services.Ring.head in
        let dst = services.Ring.dst.(i)
        and wait = services.Ring.wait.(i)
        and handler = services.Ring.run.(i) in
        t.now <- !time;
        Ring.drop services;
        complete t dst ~wait handler
  done
