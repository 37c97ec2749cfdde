(* Named wall-clock phases over Metrics histograms.  The handle table
   avoids re-walking the metric registry on every call; phases fire a
   few times per trial, from any domain — registration and the name
   list are mutex-guarded so a first touch from two trials at once is
   safe (see the racing-registration test in test_obs.ml). *)

let lock = Mutex.create ()

type handles = { h_hist : Metrics.histogram; h_sketch : Sketch.series }

let table : (string, handles) Hashtbl.t = Hashtbl.create 16

let names = ref []

(* Per-trial phases (one query, one update wave, one drift pass) run in
   microseconds-to-milliseconds; build phases in milliseconds-to-seconds.
   Each gets the bucket grid that resolves its regime. *)
let buckets_for = function
  | "query" | "update" | "drift" -> Metrics.micro_buckets
  | _ -> Metrics.default_buckets

let handle name =
  Mutex.lock lock;
  let h =
    match Hashtbl.find_opt table name with
    | Some h -> h
    | None ->
        let h =
          {
            h_hist =
              Metrics.histogram ~help:"Wall-clock seconds per pipeline phase."
                ~buckets:(buckets_for name)
                ~labels:[ ("phase", name) ] "ri_phase_seconds";
            h_sketch =
              Sketch.series
                ~help:"Wall-clock seconds per pipeline phase (quantile sketch)."
                ~labels:[ ("phase", name) ] "ri_phase_wall_seconds";
          }
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
      let dt = Unix.gettimeofday () -. t0 in
      Metrics.observe h.h_hist dt;
      Sketch.observe h.h_sketch dt;
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
      let h = handle name in
      (name, Metrics.hist_count h.h_hist, Metrics.hist_sum h.h_hist))
    ns
