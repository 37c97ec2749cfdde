open Ri_core
open Ri_content
open Ri_p2p

type topology =
  | Tree
  | Tree_with_cycles of { extra_links : int }
  | Power_law_graph

type search = No_ri | Ri of Scheme.kind | Flooding of { ttl : int option }

type t = {
  num_nodes : int;
  topology : topology;
  fanout : int;
  outdegree_exponent : float;
  topics : int;
  query_results : int;
  distribution : Placement.distribution;
  background_per_node : float;
  stop_condition : int;
  horizon : int;
  eri_decay : float;
  compression_ratio : float;
  compression_mode : Compression.error_kind;
  min_update : float;
  update_distance_floor : float;
  cycle_policy : Network.cycle_policy;
  search : search;
  bytes : Message.byte_costs;
  update_fraction : float;
  fault : Fault.spec;
  fault_seed : int option;
  seed : int;
}

(* "About 5.2% of the nodes of the Gnutella network will have an answer
   for a given query, so we set this number to 3125" (Appendix A) — the
   exact base ratio, so [scaled ~num_nodes:60000] reproduces QR = 3125. *)
let result_fraction = 3125. /. 60000.

let base =
  {
    num_nodes = 60000;
    topology = Tree;
    fanout = 4;
    outdegree_exponent = -2.2088;
    topics = 30;
    query_results = 3125;
    distribution = Placement.eighty_twenty;
    background_per_node = 2.0;
    stop_condition = 10;
    horizon = 5;
    eri_decay = 4.;
    compression_ratio = 0.;
    compression_mode = Compression.Overcount;
    min_update = 0.01;
    update_distance_floor = 1.0;
    cycle_policy = Network.Detect_recover;
    search = Ri (Scheme.Eri_kind { fanout = 4. });
    bytes = Message.paper_base_bytes;
    update_fraction = 0.05;
    fault = Fault.none;
    fault_seed = None;
    seed = 42;
  }

let scaled t ~num_nodes =
  {
    t with
    num_nodes;
    query_results =
      max 1 (int_of_float (Float.round (result_fraction *. float_of_int num_nodes)));
  }

let scaled_links t ~paper_links =
  if paper_links <= 0 then 0
  else
    max 1
      (int_of_float
         (Float.round
            (float_of_int paper_links *. float_of_int t.num_nodes /. 60000.)))

let with_search t search = { t with search }

let with_topology t topology = { t with topology }

let scheme_kind t = match t.search with Ri k -> Some k | No_ri | Flooding _ -> None

let cri = Scheme.Cri_kind

let hri t = Scheme.Hri_kind { horizon = t.horizon; fanout = float_of_int t.fanout }

let eri t = Scheme.Eri_kind { fanout = t.eri_decay }

let hybrid t =
  Scheme.Hybrid_kind { horizon = t.horizon; fanout = float_of_int t.fanout }

let compression t =
  Compression.of_ratio ~topics:t.topics ~ratio:t.compression_ratio
    ~mode:t.compression_mode

let search_name = function
  | No_ri -> "No-RI"
  | Ri k -> Scheme.kind_name k
  | Flooding _ -> "Flooding"

let topology_name = function
  | Tree -> "Tree"
  | Tree_with_cycles _ -> "Tree+Cycle"
  | Power_law_graph -> "Powerlaw"

(* An n-node tree leaves (n-1)(n-2)/2 pairs unlinked, and
   [Cycle_gen.add_random_links] can close no more cycles than that. *)
let absent_pairs n = (n - 1) * (n - 2) / 2

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let extra_links =
    match t.topology with
    | Tree_with_cycles { extra_links } -> extra_links
    | Tree | Power_law_graph -> 0
  in
  if t.num_nodes < 2 then err "num_nodes must be at least 2"
  else if t.fanout < 1 then err "fanout must be at least 1"
  else if t.topics < 1 then err "topics must be at least 1"
  else if t.query_results < 0 then err "query_results must be non-negative"
  else if t.stop_condition < 1 then err "stop_condition must be positive"
  else if t.horizon < 1 then err "horizon must be positive"
  else if not (t.eri_decay > 1.) then err "eri_decay must exceed 1"
  else if t.compression_ratio < 0. || t.compression_ratio >= 1. then
    err "compression_ratio must be in [0, 1)"
  else if t.min_update < 0. then err "min_update must be non-negative"
  else if t.update_distance_floor < 0. then
    err "update_distance_floor must be non-negative"
  else if extra_links < 0 || extra_links > absent_pairs t.num_nodes then
    err "extra_links must be between 0 and %d, the absent pairs of a %d-node tree, got %d"
      (absent_pairs t.num_nodes) t.num_nodes extra_links
  else
    match Fault.validate t.fault with
    | Error msg -> err "fault spec: %s" msg
    | Ok () ->
    (* continue with the topology/search cross-checks *)
    let cyclic =
      match t.topology with
      | Tree -> false
      | Tree_with_cycles { extra_links } -> extra_links > 0
      | Power_law_graph -> true
    in
    match (t.search, cyclic, t.cycle_policy) with
    | Ri (Scheme.Cri_kind | Scheme.Hybrid_kind _), true, Network.No_op ->
        err
          "undamped indices (CRI, hybrid) with the no-op cycle policy \
           cannot run on cyclic topologies"
    | _ -> Ok ()

let pp ppf t =
  Format.fprintf ppf
    "@[<v>NumNodes=%d T=%s F=%d o=%.4f topics=%d QR=%d D=%s Stop=%d H=%d \
     A=%g c=%.0f%% minUpdate=%.0f%% policy=%s search=%s%t@]"
    t.num_nodes (topology_name t.topology) t.fanout t.outdegree_exponent
    t.topics t.query_results
    (match t.distribution with
    | Placement.Uniform -> "uniform"
    | Placement.Biased { doc_share; node_share } ->
        Printf.sprintf "%.0f/%.0f" (100. *. doc_share) (100. *. node_share))
    t.stop_condition t.horizon t.eri_decay
    (100. *. t.compression_ratio)
    (100. *. t.min_update)
    (match t.cycle_policy with
    | Network.No_op -> "no-op"
    | Network.Detect_recover -> "detect")
    (search_name t.search)
    (fun ppf ->
      if t.update_distance_floor <> base.update_distance_floor then
        Format.fprintf ppf " floor=%g" t.update_distance_floor;
      if Fault.active t.fault then
        Format.fprintf ppf " faults=[%a]" Fault.pp t.fault;
      match t.fault_seed with
      | Some fs -> Format.fprintf ppf " faultSeed=%d" fs
      | None -> ())
