open Ri_content
open Ri_topology

(* Every trial derives independent PRNG substreams per subsystem from
   (seed, trial), so the overlay graph depends only on the topology
   parameters and the content draw (query topic, placement, origin)
   depends only on the workload parameters — neither sees the search
   scheme, stop condition, compression, or cycle policy.  Experiment
   sweeps that vary only those therefore regenerate identical graphs and
   placements for every cell; this cache shares them instead.  Cached
   values are immutable by contract: [Network.create] copies adjacency
   rows and projects summaries into its own arrays, and nothing mutates
   a [Placement.t] after construction. *)

type graph_key = {
  g_topology : Config.topology;
  g_num_nodes : int;
  g_fanout : int;
  g_exponent : float;
  g_seed : int;
  g_trial : int;
}

type content = {
  query_topics : Topic.id list;
  placement : Placement.t;
  origin : int;
}

type content_key = {
  c_num_nodes : int;
  c_topics : int;
  c_query_results : int;
  c_distribution : Placement.distribution;
  c_background : float;
  c_seed : int;
  c_trial : int;
}

(* A faulty trial's paired clean run reads nothing of its configuration's
   fault spec but the drift and the query budget, so the key is the
   trial's configuration with the spec reduced to exactly those: the
   loss levels and fallback policies a fault sweep varies all map to one
   entry per (search, budget, trial). *)
type baseline_key = { b_trial : int; b_config : Config.t }

type stats = {
  graph_hits : int;
  graph_misses : int;
  content_hits : int;
  content_misses : int;
  network_hits : int;
  network_misses : int;
  baseline_hits : int;
  baseline_misses : int;
}

(* Trials inside a runner wave execute on separate domains; one mutex
   guards every table.  Misses compute outside the lock — a racing
   domain may build the same key twice, but both values are structurally
   identical and the first insert wins. *)
let lock = Mutex.create ()

let graphs : (graph_key, Graph.t) Hashtbl.t = Hashtbl.create 64

let contents : (content_key, content) Hashtbl.t = Hashtbl.create 64

let baselines : (baseline_key, int) Hashtbl.t = Hashtbl.create 64

let graph_words = ref 0

let content_words = ref 0

let baseline_words = ref 0

let g_hits = ref 0

let g_misses = ref 0

let c_hits = ref 0

let c_misses = ref 0

let b_hits = ref 0

let b_misses = ref 0

(* Bound resident memory rather than entry counts: a 60k-node placement
   is ~15MB while a 300-node one is trivial.  On overflow the table is
   reset wholesale — reuse distances within an experiment sweep are
   short, so the refill cost is one trial set.  Each table gets its own
   budget of 32M words. *)
let budget_words = 32_000_000

let cache_enabled = ref true

let enabled () = !cache_enabled

let set_enabled b = cache_enabled := b

let clear () =
  Mutex.lock lock;
  Hashtbl.reset graphs;
  Hashtbl.reset contents;
  Hashtbl.reset baselines;
  graph_words := 0;
  content_words := 0;
  baseline_words := 0;
  g_hits := 0;
  g_misses := 0;
  c_hits := 0;
  c_misses := 0;
  b_hits := 0;
  b_misses := 0;
  Mutex.unlock lock

let stats () =
  Mutex.lock lock;
  let s =
    {
      graph_hits = !g_hits;
      graph_misses = !g_misses;
      content_hits = !c_hits;
      content_misses = !c_misses;
      (* Networks are built fresh, never cached. *)
      network_hits = 0;
      network_misses = 0;
      baseline_hits = !b_hits;
      baseline_misses = !b_misses;
    }
  in
  Mutex.unlock lock;
  s

let find_or tbl hits misses words ~cost key compute =
  if not !cache_enabled then compute ()
  else begin
    Mutex.lock lock;
    match Hashtbl.find_opt tbl key with
    | Some v ->
        incr hits;
        Mutex.unlock lock;
        v
    | None ->
        incr misses;
        Mutex.unlock lock;
        let v = compute () in
        let c = cost v in
        Mutex.lock lock;
        let v =
          match Hashtbl.find_opt tbl key with
          | Some winner -> winner
          | None ->
              if !words + c > budget_words then begin
                Hashtbl.reset tbl;
                words := 0
              end;
              Hashtbl.add tbl key v;
              words := !words + c;
              v
        in
        Mutex.unlock lock;
        v
  end

let graph_cost g =
  let n = Graph.n g in
  n + (2 * Graph.edge_count g)

let content_cost c =
  let n = Array.length c.placement.Placement.matches in
  let topics =
    if n = 0 then 0 else Summary.topics c.placement.Placement.summaries.(0)
  in
  n * (topics + 4)

let graph key compute = find_or graphs g_hits g_misses graph_words ~cost:graph_cost key compute

let content key compute =
  find_or contents c_hits c_misses content_words ~cost:content_cost key compute

(* An entry is one int plus its key: the key record, the configuration
   record and clean fault spec it carries (their other nested values are
   shared with the caller's configuration) and the table cell. *)
let baseline_cost _ = 48

let baseline key compute =
  find_or baselines b_hits b_misses baseline_words ~cost:baseline_cost key
    compute
