open Ri_util
open Ri_obs

(* The cache and pool keep their own always-on counters (they predate
   the metrics registry and cost a few mutations per wave, not per
   item); this bridge snapshots them into gauges so one Metrics.render
   carries the whole picture. *)

let g_cache kind what =
  Metrics.gauge ~help:"Setup-cache lookups." ~labels:[ ("kind", kind) ]
    ("ri_setup_cache_" ^ what)

let g_graph_hits = g_cache "graph" "hits"

let g_graph_misses = g_cache "graph" "misses"

let g_content_hits = g_cache "content" "hits"

let g_content_misses = g_cache "content" "misses"

let g_baseline_hits = g_cache "baseline" "hits"

let g_baseline_misses = g_cache "baseline" "misses"

let g_pool_jobs = Metrics.gauge ~help:"Pool width (domains)." "ri_pool_jobs"

let g_pool_waves = Metrics.gauge ~help:"Waves submitted." "ri_pool_waves"

let g_pool_items = Metrics.gauge ~help:"Items executed." "ri_pool_items"

let g_pool_max_wave = Metrics.gauge ~help:"Largest wave." "ri_pool_max_wave"

let g_pool_busy =
  Metrics.gauge ~help:"Mean domains busy per wave." "ri_pool_busy_domains_avg"

let g_pool_wait =
  Metrics.gauge ~help:"Seconds the submitter waited on stragglers."
    "ri_pool_submit_wait_seconds"

let export_metrics () =
  let s = Setup_cache.stats () in
  Metrics.set g_graph_hits (float_of_int s.Setup_cache.graph_hits);
  Metrics.set g_graph_misses (float_of_int s.Setup_cache.graph_misses);
  Metrics.set g_content_hits (float_of_int s.Setup_cache.content_hits);
  Metrics.set g_content_misses (float_of_int s.Setup_cache.content_misses);
  Metrics.set g_baseline_hits (float_of_int s.Setup_cache.baseline_hits);
  Metrics.set g_baseline_misses (float_of_int s.Setup_cache.baseline_misses);
  let pool = Pool.global () in
  let p = Pool.stats pool in
  Metrics.set g_pool_jobs (float_of_int (Pool.jobs pool));
  Metrics.set g_pool_waves (float_of_int p.Pool.waves);
  Metrics.set g_pool_items (float_of_int p.Pool.items);
  Metrics.set g_pool_max_wave (float_of_int p.Pool.max_wave);
  Metrics.set g_pool_busy
    (if p.Pool.waves = 0 then 0.
     else float_of_int p.Pool.busy_domains /. float_of_int p.Pool.waves);
  Metrics.set g_pool_wait p.Pool.submit_wait_s;
  Gcprof.export_metrics ()

(* Everything a scrape or a --metrics dump should carry: the registry
   with the bridge gauges refreshed.  This is also what --serve-obs
   hands to /metrics. *)
let render_metrics () =
  export_metrics ();
  Metrics.render ()

let gc_lines = Gcprof.table_lines

let pct hits misses =
  let total = hits + misses in
  if total = 0 then 0. else 100. *. float_of_int hits /. float_of_int total

let cache_line () =
  if not (Setup_cache.enabled ()) then "setup-cache: disabled"
  else
    let s = Setup_cache.stats () in
    Printf.sprintf
      "setup-cache: graphs %d hits / %d misses (%.0f%%), content %d hits / %d \
       misses (%.0f%%), baselines %d hits / %d misses"
      s.Setup_cache.graph_hits s.Setup_cache.graph_misses
      (pct s.Setup_cache.graph_hits s.Setup_cache.graph_misses)
      s.Setup_cache.content_hits s.Setup_cache.content_misses
      (pct s.Setup_cache.content_hits s.Setup_cache.content_misses)
      s.Setup_cache.baseline_hits s.Setup_cache.baseline_misses

let pool_line () =
  let pool = Pool.global () in
  let p = Pool.stats pool in
  Printf.sprintf
    "pool: %d domains, %d waves / %d trials (max wave %d), %.1f domains busy \
     per wave, %.2fs straggler wait"
    (Pool.jobs pool) p.Pool.waves p.Pool.items p.Pool.max_wave
    (if p.Pool.waves = 0 then 0.
     else float_of_int p.Pool.busy_domains /. float_of_int p.Pool.waves)
    p.Pool.submit_wait_s
