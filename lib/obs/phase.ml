(* Named wall-clock phases over Metrics summaries.  The handle table
   avoids re-walking the metric registry on every call; phases fire a
   few times per trial, from any domain — registration and the name
   list are mutex-guarded so a first touch from two trials at once is
   safe (see the racing-registration test in test_obs.ml). *)

let lock = Mutex.create ()

let table : (string, Metrics.summary) Hashtbl.t = Hashtbl.create 16

let names = ref []

let handle name =
  Mutex.lock lock;
  let h =
    match Hashtbl.find_opt table name with
    | Some h -> h
    | None ->
        let h =
          Metrics.summary
            ~help:"Wall-clock seconds per pipeline phase (quantile sketch)."
            ~labels:[ ("phase", name) ] "ri_phase_wall_seconds"
        in
        Hashtbl.add table name h;
        names := name :: !names;
        h
  in
  Mutex.unlock lock;
  h

(* The most recently entered phase, for the /progress endpoint.  One
   atomic store per phase entry/exit — nothing a per-trial phase can
   feel.  Nested phases restore the enclosing name on exit. *)
let current_phase = Atomic.make ""

let current () = Atomic.get current_phase

let time name f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let h = handle name in
    let enclosing = Atomic.get current_phase in
    Atomic.set current_phase name;
    let t0 = Unix.gettimeofday () in
    let finally () =
      Metrics.observe h (Unix.gettimeofday () -. t0);
      Atomic.set current_phase enclosing
    in
    Fun.protect ~finally (fun () -> Gcprof.wrap name f)
  end

let totals () =
  Mutex.lock lock;
  let ns = List.sort compare !names in
  Mutex.unlock lock;
  List.map
    (fun name ->
      let sk = Metrics.snapshot (handle name) in
      (name, Sketch.count sk, Sketch.sum sk))
    ns
