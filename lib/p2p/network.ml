open Ri_util
open Ri_content
open Ri_core

type cycle_policy = No_op | Detect_recover

type build_mode = Converged | Rooted of int

let m_builds mode =
  Ri_obs.Metrics.counter ~help:"Networks constructed (RIs built)."
    ~labels:[ ("mode", mode) ] "ri_network_builds_total"

let m_builds_rooted = m_builds "rooted"

let m_builds_converged = m_builds "converged"

let m_builds_no_ri = m_builds "no_ri"

let m_installs =
  Ri_obs.Metrics.counter
    ~help:"Rooted routing indices installed on their first read."
    "ri_rooted_installs_total"

type content = {
  summary : int -> Summary.t;
  count_matching : int -> Topic.id list -> int;
}

let content_of_local_indices indices =
  {
    summary = (fun v -> Local_index.summary indices.(v));
    count_matching = (fun v q -> Local_index.count_matching indices.(v) q);
  }

let content_of_placement (p : Placement.t) =
  {
    summary = (fun v -> p.summaries.(v));
    count_matching = (fun v _ -> p.matches.(v));
  }

(* A rooted network's rows not yet installed.  The flat pass leaves
   each reachable node's reach — the export its deeper neighbours fold
   into the row they hold for it — at [v * stride] of [reach]; a node's
   index is built from these on its first read.  Until then its [ris]
   slot holds [scratch], the index the pass computed reaches in. *)
type pending = {
  scratch : Scheme.t;
  kind : Scheme.kind;
  width : int;
  depth : int array;  (* BFS depth from the origin; [max_int] off its component *)
  reach : float array;
  stride : int;
}

type t = {
  mutable adj : int array array;
  content : content;
  scheme_kind : Scheme.kind option;
  compression : Compression.t;
  policy : cycle_policy;
  min_update : float;
  update_distance_floor : float;
  perturb : (float * Compression.error_kind) option;
  rng : Prng.t;
  ris : Scheme.t array;
  locals : Summary.t array;
  mutable pending : pending option;
  mutable converged_iterations : int;
  mutable next_wave : int;
      (* logical update-wave counter for provenance lineage: each
         [Update.wave] draws one id and stamps the RI rows it rewrites.
         Per instance (so [copy] gives clones independent counters —
         pool workers stay deterministic) and purely observational:
         build-time rows keep stamp 0. *)
}

let size t = Array.length t.adj

(* Node [v]'s index from the flat reaches: deeper neighbours first, then
   equal-depth ones, each in adjacency order — the insert sequence the
   rooted construction defines, into a fresh store, so iteration (and
   with it every export's summation) order follows from the sequence
   alone.  Equal-depth neighbours' creation waves cross on their link,
   so each holds the other's reach: the rows that let a query arrive at
   a node through two parents, the paper's cycle effect.  A node off
   the origin's component gets an empty index. *)
let install t p v =
  let adj = t.adj.(v) in
  let ri =
    Scheme.create ~rows:(Array.length adj) p.kind ~width:p.width
      ~local:t.locals.(v)
  in
  let d = p.depth.(v) in
  if d < max_int then begin
    let store = Scheme.rowstore ri in
    let load depth =
      Array.iter
        (fun x ->
          if p.depth.(x) = depth && x <> v then
            Rowstore.load_row store ~peer:x p.reach ~pos:(x * p.stride))
        adj
    in
    load (d + 1);
    load d
  end;
  t.ris.(v) <- ri;
  Ri_obs.Metrics.incr m_installs

let install_all t =
  match t.pending with
  | None -> ()
  | Some p ->
      for v = 0 to size t - 1 do
        if t.ris.(v) == p.scratch then install t p v
      done;
      t.pending <- None

(* Per-trial clone of a cached template.  Mutable state — adjacency
   rows (churn), RIs and projected locals (update waves) — is deep
   copied; the content closures, compression and policy knobs are
   shared.  The RI clones preserve row-table iteration order
   ([Scheme.copy]), so a copy is bit-for-bit indistinguishable from
   rebuilding the network from scratch.  The PRNG is shared: with no
   perturbation model the network never draws from it, and templates
   are only cached in that case. *)
let copy t =
  install_all t;
  {
    t with
    (* Only the outer array: [add_link]/[remove_link] replace rows with
       fresh arrays rather than mutating them, so rows can be shared. *)
    adj = Array.copy t.adj;
    ris = Array.map Scheme.copy t.ris;
    locals = Array.copy t.locals;
  }

let storage_words t =
  install_all t;
  let words = ref 0 in
  Array.iter (fun a -> words := !words + Array.length a + 3) t.adj;
  Array.iter
    (fun ri -> words := !words + (Scheme.storage_bytes ri / 8) + 16)
    t.ris;
  !words + (4 * Array.length t.locals)

let neighbors t v = t.adj.(v)

let degree t v = Array.length t.adj.(v)

(* Monomorphic compare: this runs once per queued update message. *)
let has_link t u v = Array.exists (fun (y : int) -> y = v) t.adj.(u)

let scheme t = t.scheme_kind

let cycle_policy t = t.policy

let min_update t = t.min_update

let update_distance_floor t = t.update_distance_floor

let has_ri t = Array.length t.ris > 0

let ri t v =
  if not (has_ri t) then invalid_arg "Network.ri: No-RI network";
  (match t.pending with
  | Some p when t.ris.(v) == p.scratch -> install t p v
  | Some _ | None -> ());
  t.ris.(v)

let local_summary t v = t.locals.(v)

let raw_local_summary t v = t.content.summary v

let count_matching t v q = t.content.count_matching v q

let project_query t q =
  List.map (Compression.project_topic t.compression) q
  |> List.sort_uniq compare

let rng t = t.rng

let compression t = t.compression

let converged_iterations t = t.converged_iterations

let fresh_wave t =
  t.next_wave <- t.next_wave + 1;
  t.next_wave

let maybe_perturb t payload =
  match t.perturb with
  | None -> payload
  | Some (relative_stddev, kind) ->
      Scheme.payload_perturb t.rng ~relative_stddev ~kind payload

let outgoing_exports t v =
  if not (has_ri t) then []
  else
    let () = install_all t in
    let exports = Scheme.export_all t.ris.(v) in
    (* No perturbation model: skip the identity [List.map] — this runs
       twice per delivered update message (pre/post exports). *)
    match t.perturb with
    | None -> exports
    | Some _ ->
        List.map (fun (p, payload) -> (p, maybe_perturb t payload)) exports

let outgoing_exports_except t v ~except =
  if not (has_ri t) then []
  else
    let () = install_all t in
    match t.perturb with
    | None -> Scheme.export_except t.ris.(v) ~except
    | Some _ ->
        (* Perturbation draws one rng sample per exported payload, so the
           skip would shift the stream: keep the full pass and filter. *)
        List.filter
          (fun ((p : int), _) -> not (List.exists (fun e -> e = p) except))
          (outgoing_exports t v)

let export_to t v ~peer =
  if not (has_ri t) then invalid_arg "Network.export_to: No-RI network";
  install_all t;
  maybe_perturb t (Scheme.export t.ris.(v) ~exclude:(Some peer))

let set_local_summary t v summary =
  install_all t;
  let s = Compression.project_summary t.compression summary in
  t.locals.(v) <- s;
  if has_ri t then Scheme.set_local t.ris.(v) s

let refresh_local t v = set_local_summary t v (t.content.summary v)

(* BFS spanning forest: returns the visit order and, per node, its parent
   (-1 for component roots). *)
let bfs_forest adj =
  let n = Array.length adj in
  let parent = Array.make n (-2) in
  let order = Array.make n 0 in
  let filled = ref 0 in
  let q = Queue.create () in
  for root = 0 to n - 1 do
    if parent.(root) = -2 then begin
      parent.(root) <- -1;
      Queue.add root q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        order.(!filled) <- u;
        incr filled;
        Array.iter
          (fun v ->
            if parent.(v) = -2 then begin
              parent.(v) <- u;
              Queue.add v q
            end)
          adj.(u)
      done
    end
  done;
  (order, parent)

(* Exact converged RIs on the spanning forest: an up pass sends each
   node's aggregate toward its parent, a down pass distributes the
   completed aggregates back toward the leaves.  Equivalent to running
   the Figure 6 algorithm to quiescence on a cycle-free overlay. *)
let build_forest_exact t order parent =
  let n = size t in
  (* Up pass: reverse BFS order, so every child is handled before its
     parent.  At that point a node's rows hold exactly its children. *)
  for i = n - 1 downto 0 do
    let v = order.(i) in
    let p = parent.(v) in
    if p >= 0 then begin
      let payload = maybe_perturb t (Scheme.export t.ris.(v) ~exclude:None) in
      Scheme.set_row t.ris.(p) ~peer:v payload
    end
  done;
  (* Down pass: BFS order, so a node's parent row is installed before the
     node distributes exports to its children. *)
  for i = 0 to n - 1 do
    let v = order.(i) in
    List.iter
      (fun (peer, payload) ->
        if peer <> parent.(v) then
          Scheme.set_row t.ris.(peer) ~peer:v (maybe_perturb t payload))
      (Scheme.export_all t.ris.(v))
  done

let non_tree_edges adj parent =
  let n = Array.length adj in
  let is_tree u v = parent.(u) = v || parent.(v) = u in
  let acc = ref [] in
  for u = 0 to n - 1 do
    Array.iter
      (fun v -> if u < v && not (is_tree u v) then acc := (u, v) :: !acc)
      adj.(u)
  done;
  !acc

(* Cycle-closing links on a cyclic overlay: the spanning-tree rows are
   exact; each non-tree link carries what the first creation wave left
   behind.  Under first-arrival (duplicate-suppressed) flooding, the
   information that crosses such a link is the far endpoint's own
   subtree — everything on its parent side reaches the near endpoint
   faster over the tree — so the crossing row is the far endpoint's
   export excluding its tree parent, computed from the converged tree
   state before any non-tree row is installed. *)
let fill_non_tree_once t parent extra =
  let crossing v =
    let exclude = if parent.(v) >= 0 then Some parent.(v) else None in
    maybe_perturb t (Scheme.export t.ris.(v) ~exclude)
  in
  let pending =
    List.concat_map
      (fun (u, v) -> [ (u, v, crossing v); (v, u, crossing u) ])
      extra
  in
  List.iter (fun (at, peer, payload) -> Scheme.set_row t.ris.(at) ~peer payload) pending

(* The paper simulator's construction (Appendix A): RI rows only for
   neighbors strictly further from the originator, each row aggregating
   the neighbor's entire downstream reach.  A node adjacent to two
   same-level parents contributes its reach to both rows — the overlap
   overcount the paper attributes to cycles.

   One flat pass computes every reach, deepest nodes first, so each
   downstream reach exists before it is consumed.  A node's reach is its
   scheme's own export over one scratch index, reset per node and fed
   the node's deeper neighbours' reaches in adjacency order: the inserts
   its installed store starts with, into the same fresh peer-table
   state, so the export sums the same operands in the same order.  The
   export's payload is copied into the flat array; a perturbation model
   perturbs it first, drawing once per reachable node, deepest first.
   Every [ris] slot holds the scratch
   until the node's first read installs its own index ({!install}). *)
let build_rooted t origin =
  let n = size t in
  let depth = Array.make n max_int in
  depth.(origin) <- 0;
  (* BFS order doubles as the queue. *)
  let order = Array.make n origin in
  let filled = ref 1 in
  let head = ref 0 in
  while !head < !filled do
    let u = order.(!head) in
    incr head;
    let adj = t.adj.(u) in
    for k = 0 to Array.length adj - 1 do
      let v = adj.(k) in
      if depth.(v) = max_int then begin
        depth.(v) <- depth.(u) + 1;
        order.(!filled) <- v;
        incr filled
      end
    done
  done;
  let scratch = t.ris.(origin) in
  let store = Scheme.rowstore scratch in
  let stride = Rowstore.stride store in
  let reach = Array.make (n * stride) 0. in
  for i = !filled - 1 downto 0 do
    let v = order.(i) in
    let adj = t.adj.(v) and deeper = depth.(v) + 1 in
    Rowstore.reset store;
    Scheme.set_local scratch t.locals.(v);
    for k = 0 to Array.length adj - 1 do
      let x = adj.(k) in
      if depth.(x) = deeper then
        Rowstore.load_row store ~peer:x reach ~pos:(x * stride)
    done;
    Scheme.blit_payload
      (maybe_perturb t (Scheme.export scratch ~exclude:None))
      reach (v * stride)
  done;
  t.pending <-
    Some
      {
        scratch;
        kind = Scheme.kind scratch;
        width = Scheme.width scratch;
        depth;
        reach;
        stride;
      }

let create ~graph ~content ?scheme ?(compression = Compression.exact)
    ?(cycle_policy = Detect_recover) ?(min_update = 0.01)
    ?(update_distance_floor = 1.0) ?perturb ?rng ?(mode = Converged) () =
  let n = Ri_topology.Graph.n graph in
  (match mode with
  | Rooted origin when origin < 0 || origin >= n ->
      invalid_arg "Network.create: rooted origin out of range"
  | Rooted _ | Converged -> ());
  let adj = Array.init n (fun v -> Array.copy (Ri_topology.Graph.neighbors graph v)) in
  let rng = match rng with Some r -> r | None -> Prng.create 0x5eed in
  let topics = Summary.topics (content.summary 0) in
  let width = Compression.width ~topics compression in
  let locals =
    Array.init n (fun v ->
        Compression.project_summary compression (content.summary v))
  in
  let ris =
    match (scheme, mode) with
    | None, _ -> [||]
    | Some kind, Rooted origin ->
        Array.make n (Scheme.create kind ~width ~local:locals.(origin))
    | Some kind, Converged ->
        Array.init n (fun v ->
            Scheme.create ~rows:(Array.length adj.(v)) kind ~width
              ~local:locals.(v))
  in
  let t =
    {
      adj;
      content;
      scheme_kind = scheme;
      compression;
      policy = cycle_policy;
      min_update;
      update_distance_floor;
      perturb;
      rng;
      ris;
      locals;
      pending = None;
      converged_iterations = 0;
      next_wave = 0;
    }
  in
  (match (scheme, mode) with
  | None, _ -> Ri_obs.Metrics.incr m_builds_no_ri
  | Some _, Rooted origin ->
      Ri_obs.Metrics.incr m_builds_rooted;
      build_rooted t origin;
      t.converged_iterations <- 1
  | Some kind, Converged ->
      Ri_obs.Metrics.incr m_builds_converged;
      let order, parent = bfs_forest adj in
      let extra = non_tree_edges adj parent in
      let cyclic = extra <> [] in
      (match (kind, cyclic, cycle_policy) with
      | (Scheme.Cri_kind | Scheme.Hybrid_kind _), true, No_op ->
          (* The hybrid's beyond-horizon tail is as undamped as a
             compound RI, so it cannot ignore cycles either. *)
          invalid_arg
            "Network.create: a compound RI under the no-op cycle policy \
             does not terminate on a cyclic network (paper, Section 7)"
      | _ -> ());
      build_forest_exact t order parent;
      t.converged_iterations <- 1;
      (* On a cyclic overlay the resting state is the spanning-tree
         aggregate plus the single first-wave crossing per cycle link —
         what a finite history of dedup'd/damped creation waves leaves
         behind.  (An exact fixed point of the export equations need not
         exist: an undamped CRI diverges on any cycle, and even damped
         schemes diverge once a node's degree exceeds the assumed
         fanout, as in power-law hubs.)  Update waves therefore judge
         significance against sender-carried baselines, not against
         state self-consistency — see {!Update}. *)
      if cyclic then fill_non_tree_once t parent extra);
  t

let remove_from_row row x =
  let len = Array.length row in
  let out = Array.make (len - 1) 0 in
  let j = ref 0 in
  Array.iter
    (fun y ->
      if y <> x then begin
        out.(!j) <- y;
        incr j
      end)
    row;
  if !j <> len - 1 then invalid_arg "Network.remove_link: link not present";
  out

(* Installs read the adjacency, so pending rows are installed before
   it changes. *)
let add_link t u v =
  install_all t;
  if u = v then invalid_arg "Network.add_link: self-loop";
  if has_link t u v then invalid_arg "Network.add_link: link exists";
  t.adj.(u) <- Array.append t.adj.(u) [| v |];
  t.adj.(v) <- Array.append t.adj.(v) [| u |];
  Array.sort Int.compare t.adj.(u);
  Array.sort Int.compare t.adj.(v)

let remove_link t u v =
  install_all t;
  if not (has_link t u v) then
    invalid_arg "Network.remove_link: link not present";
  t.adj.(u) <- remove_from_row t.adj.(u) v;
  t.adj.(v) <- remove_from_row t.adj.(v) u
