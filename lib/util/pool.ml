(* A hand-rolled fixed-size domain pool (Domainslib is not available in
   this tree).  [jobs - 1] worker domains block on a condition variable;
   each submitted job is a counted range [0, n) that workers and the
   submitting domain drain together by claiming one index at a time
   from an atomic cursor.  With [jobs = 1] no domains exist and every
   job runs inline on the caller, which keeps the sequential path free
   of synchronization overhead.

   Re-entrancy: a domain that is already draining a job may itself call
   [iter] — the nested call detects the situation through a domain-local
   flag and runs inline, sequentially, instead of deadlocking on the
   single-submitter protocol. *)

type job = {
  run : int -> unit;
  n : int;
  next : int Atomic.t;  (* first unclaimed index *)
  remaining : int Atomic.t;  (* indices claimed but not yet credited *)
  participants : int Atomic.t;  (* domains that claimed >= 1 index *)
  mutable failed : (exn * Printexc.raw_backtrace) option;
      (* first failure, with the trace from the domain where it was
         raised; protected by the pool mutex *)
}

type stats = {
  waves : int;
  items : int;
  max_wave : int;
  busy_domains : int;
  submit_wait_s : float;
}

(* Utilization accounting is a few mutations per submitted wave, not per
   item, so it stays on unconditionally. *)
type stats_acc = {
  mutable s_waves : int;
  mutable s_items : int;
  mutable s_max_wave : int;
  mutable s_busy : int;
  mutable s_wait : float;
}

type t = {
  jobs : int;
  m : Mutex.t;
  has_work : Condition.t;
  finished : Condition.t;
  mutable job : job option;
  mutable gen : int;  (* bumped once per submitted job *)
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
  acc : stats_acc;  (* protected by [m] *)
}

let jobs t = t.jobs

(* Domain-local "currently draining a job" flag.  Set while [execute]
   runs item functions, checked by [iter]: a nested submission would
   block forever (the outer job's range can never complete while its
   domain waits on the inner one), so nested calls run inline. *)
let in_job_flag = Domain.DLS.new_key (fun () -> ref false)

let in_job () = !(Domain.DLS.get in_job_flag)

let record_failure t j e bt =
  Mutex.lock t.m;
  if j.failed = None then j.failed <- Some (e, bt);
  Mutex.unlock t.m

(* Drain the current job: claim indices until the cursor passes [n].
   Whoever credits the last index broadcasts completion.  A failing item
   is recorded but does not abandon the job — the range must be fully
   credited or the submitter would wait forever. *)
let execute t j =
  let claimed_any = ref false in
  let flag = Domain.DLS.get in_job_flag in
  let was = !flag in
  flag := true;
  let rec claim () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.n then begin
      if not !claimed_any then begin
        claimed_any := true;
        Atomic.incr j.participants
      end;
      (try j.run i
       with e -> record_failure t j e (Printexc.get_raw_backtrace ()));
      if Atomic.fetch_and_add j.remaining (-1) = 1 then begin
        Mutex.lock t.m;
        Condition.broadcast t.finished;
        Mutex.unlock t.m
      end;
      claim ()
    end
  in
  Fun.protect ~finally:(fun () -> flag := was) claim

let rec worker t seen =
  Mutex.lock t.m;
  while (not t.stopped) && (t.gen = seen || t.job = None) do
    Condition.wait t.has_work t.m
  done;
  if t.stopped then Mutex.unlock t.m
  else begin
    let gen = t.gen in
    let j = Option.get t.job in
    Mutex.unlock t.m;
    execute t j;
    worker t gen
  end

let create ~jobs:requested =
  let jobs = max 1 requested in
  let t =
    {
      jobs;
      m = Mutex.create ();
      has_work = Condition.create ();
      finished = Condition.create ();
      job = None;
      gen = 0;
      stopped = false;
      domains = [];
      acc = { s_waves = 0; s_items = 0; s_max_wave = 0; s_busy = 0; s_wait = 0. };
    }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t 0));
  t

let shutdown t =
  Mutex.lock t.m;
  if t.stopped then Mutex.unlock t.m
  else begin
    t.stopped <- true;
    Condition.broadcast t.has_work;
    Mutex.unlock t.m;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let stats t =
  Mutex.lock t.m;
  let s =
    {
      waves = t.acc.s_waves;
      items = t.acc.s_items;
      max_wave = t.acc.s_max_wave;
      busy_domains = t.acc.s_busy;
      submit_wait_s = t.acc.s_wait;
    }
  in
  Mutex.unlock t.m;
  s

let reset_stats t =
  Mutex.lock t.m;
  t.acc.s_waves <- 0;
  t.acc.s_items <- 0;
  t.acc.s_max_wave <- 0;
  t.acc.s_busy <- 0;
  t.acc.s_wait <- 0.;
  Mutex.unlock t.m

let note_wave t ~n ~busy ~wait =
  Mutex.lock t.m;
  t.acc.s_waves <- t.acc.s_waves + 1;
  t.acc.s_items <- t.acc.s_items + n;
  if n > t.acc.s_max_wave then t.acc.s_max_wave <- n;
  t.acc.s_busy <- t.acc.s_busy + busy;
  t.acc.s_wait <- t.acc.s_wait +. wait;
  Mutex.unlock t.m

let iter t ~n f =
  if n < 0 then invalid_arg "Pool.iter: negative n";
  if t.stopped then invalid_arg "Pool.iter: pool is shut down";
  if n > 0 then
    if t.jobs = 1 || n = 1 || in_job () then begin
      for i = 0 to n - 1 do
        f i
      done;
      note_wave t ~n ~busy:1 ~wait:0.
    end
    else begin
      let j =
        {
          run = f;
          n;
          next = Atomic.make 0;
          remaining = Atomic.make n;
          participants = Atomic.make 0;
          failed = None;
        }
      in
      Mutex.lock t.m;
      t.job <- Some j;
      t.gen <- t.gen + 1;
      Condition.broadcast t.has_work;
      Mutex.unlock t.m;
      execute t j;
      (* Whatever the submitter now spends under [finished] is straggler
         wait: its own share of the range is already drained. *)
      let t0 = Unix.gettimeofday () in
      Mutex.lock t.m;
      while Atomic.get j.remaining > 0 do
        Condition.wait t.finished t.m
      done;
      t.job <- None;
      Mutex.unlock t.m;
      note_wave t ~n ~busy:(Atomic.get j.participants)
        ~wait:(Unix.gettimeofday () -. t0);
      (* Re-raise on the submitter with the worker's own backtrace — a
         bare [raise] here would point every pool failure at this line
         instead of the item that actually blew up. *)
      match j.failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end

let map t ~n f =
  if n < 0 then invalid_arg "Pool.map: negative n";
  let out = Array.make n None in
  iter t ~n (fun i -> out.(i) <- Some (f i));
  Array.map (function Some v -> v | None -> assert false) out

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let global_pool = ref None

let global () =
  match !global_pool with
  | Some p -> p
  | None ->
      let p = create ~jobs:(default_jobs ()) in
      global_pool := Some p;
      p

let set_global_jobs jobs =
  Option.iter shutdown !global_pool;
  global_pool := Some (create ~jobs)

let with_pool ~jobs f =
  let p = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

(* Worker domains block forever on [has_work]; without this the process
   would never terminate once the global pool has been forced. *)
let () =
  at_exit (fun () ->
      match !global_pool with Some p -> shutdown p | None -> ())
