(* The shared merge rule behind every per-trial recorder.

   Determinism contract (identical for the event log and decision
   records): events are buffered in a per-trial sink on whichever domain
   runs the trial, and completed buffers are merged into a global store
   keyed by (unit, trial) — [unit] is bumped once per Runner.run, on the
   submitting domain, so it is scheduling independent.  Rendering sorts
   by that key and numbers events by their in-trial position, so
   exported bytes are identical whatever the pool width.  Timestamps are
   logical ticks, never wall clock: wall clock would differ run to run
   and domain to domain (wall-clock profiling belongs in Metrics/Phase).

   Each [Make] application owns private state — recording flag, unit
   counter, store — so Span and Decision record independently: turning
   decisions on does not start the event log and vice versa.  [start]
   only raises the recording flag; collected events stay until [clear]. *)

module Make (E : sig
  type t
end) =
struct
  type event = E.t

  type sink = {
    live : bool;
    key : int * int;  (* (unit, trial) *)
    mutable rev : event list;  (* newest first *)
  }

  let null = { live = false; key = (0, 0); rev = [] }

  let is_live s = s.live

  let recording_flag = Atomic.make false

  let recording () = Atomic.get recording_flag

  let start () = Atomic.set recording_flag true

  let stop () = Atomic.set recording_flag false

  let unit_counter = Atomic.make 0

  let next_unit () =
    if Atomic.get recording_flag then
      ignore (Atomic.fetch_and_add unit_counter 1)

  let lock = Mutex.create ()

  (* Values are newest-first so same-key registrations (e.g. a query
     trial followed by an update trial at the same index) prepend in
     O(own events); rendering reverses once. *)
  let store : (int * int, event list ref) Hashtbl.t = Hashtbl.create 256

  let clear () =
    Mutex.lock lock;
    Hashtbl.reset store;
    Atomic.set unit_counter 0;
    Mutex.unlock lock

  let with_trial ~trial f =
    if not (Atomic.get recording_flag) then f null
    else begin
      let s = { live = true; key = (Atomic.get unit_counter, trial); rev = [] } in
      let finally () =
        if s.rev <> [] then begin
          Mutex.lock lock;
          (match Hashtbl.find_opt store s.key with
          | Some r -> r := s.rev @ !r
          | None -> Hashtbl.add store s.key (ref s.rev));
          Mutex.unlock lock
        end
      in
      Fun.protect ~finally (fun () -> f s)
    end

  let push s e = if s.live then s.rev <- e :: s.rev

  let events () =
    Mutex.lock lock;
    let all =
      Hashtbl.fold (fun key r acc -> (key, List.rev !r) :: acc) store []
    in
    Mutex.unlock lock;
    List.sort (fun (a, _) (b, _) -> compare a b) all
end
