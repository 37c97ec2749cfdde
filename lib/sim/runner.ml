open Ri_util
open Ri_obs

type spec = { min_trials : int; max_trials : int; target_rel_error : float }

let m_units =
  Metrics.counter ~help:"Runner invocations (data points)." "ri_runner_units_total"

let m_waves = Metrics.counter ~help:"Trial waves executed." "ri_runner_waves_total"

let m_trials = Metrics.counter ~help:"Trials executed." "ri_runner_trials_total"

let m_converged =
  Metrics.counter ~help:"Data points stopped early by the CI rule."
    "ri_runner_converged_total"

let default_spec = { min_trials = 5; max_trials = 30; target_rel_error = 0.1 }

(* Trials run in waves so the adaptive stopping rule stays deterministic
   under parallel execution: the first wave is [min_trials], every later
   wave is a fixed-size batch, and convergence is only checked at wave
   boundaries.  Wave size never depends on the pool width, and the wave's
   observations fold into the accumulator in trial-index order, so
   [RI_JOBS=4] and [RI_JOBS=1] produce bit-identical summaries.  The
   price is a bounded overshoot: up to [wave_batch - 1] extra trials
   compared to checking after every single one. *)
let wave_batch = 4

let run ?pool spec f =
  if spec.min_trials < 1 || spec.max_trials < spec.min_trials then
    invalid_arg "Runner.run: bad trial bounds";
  let pool = match pool with Some p -> p | None -> Pool.global () in
  (* One unit per data point, bumped on the submitting domain, so trial
     keys never depend on the pool width.  Each recorder keeps its own
     counter: provenance can be on without the event log and vice
     versa. *)
  Decision.next_unit ();
  Span.next_unit ();
  Metrics.incr m_units;
  Serve.Progress.begin_run ~total:spec.max_trials ();
  let acc = Stats.Acc.create () in
  let next = ref 0 in
  let converged = ref false in
  while (not !converged) && !next < spec.max_trials do
    let wave =
      if !next = 0 then min spec.min_trials spec.max_trials
      else min wave_batch (spec.max_trials - !next)
    in
    let base = !next in
    let obs = Pool.map_chunked ~chunk:1 pool ~n:wave (fun i -> f ~trial:(base + i)) in
    Array.iter (Stats.Acc.add acc) obs;
    Metrics.incr m_waves;
    Metrics.add m_trials wave;
    next := base + wave;
    Serve.Progress.set_trials !next;
    if
      Stats.Acc.count acc >= spec.min_trials
      && Stats.converged ~target:spec.target_rel_error ~min_obs:spec.min_trials
           acc
    then converged := true
  done;
  if !converged then Metrics.incr m_converged;
  Stats.summarize acc

let mean ?pool spec f = (run ?pool spec f).Stats.mean
