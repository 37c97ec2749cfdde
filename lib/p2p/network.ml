open Ri_util
open Ri_content
open Ri_core
module Graph = Ri_topology.Graph

type cycle_policy = No_op | Detect_recover

type build_mode = Converged | Rooted of int

let m_builds mode =
  Ri_obs.Metrics.counter ~help:"Networks constructed (RIs built)."
    ~labels:[ ("mode", mode) ] "ri_network_builds_total"

let m_builds_rooted = m_builds "rooted"

let m_builds_converged = m_builds "converged"

let m_builds_no_ri = m_builds "no_ri"

let m_installs mode =
  Ri_obs.Metrics.counter
    ~help:
      (Printf.sprintf "%s routing indices installed on their first read."
         (String.capitalize_ascii mode))
    (Printf.sprintf "ri_%s_installs_total" mode)

let m_installs_rooted = m_installs "rooted"

let m_installs_converged = m_installs "converged"

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

(* Rows a build computed but has not installed.  A node's index is
   built from them on its first read; until then its [ris] slot holds
   [scratch], the index the pass computed rows in.  The arrays go once
   every node is installed ([left] counts the rest). *)
type rows =
  | Reaches of { depth : int array; reach : float array }
      (* rooted: BFS depth from the origin ([max_int] off its
         component), and each reachable node's reach — the export its
         deeper neighbours fold into the row they hold for it — at
         [v * stride] *)
  | Links of { start : int array; peer : int array; cells : float array }
      (* converged: node [v]'s rows in insert order at [start.(v)] to
         [start.(v + 1) - 1]; row [j] is for [peer.(j)], its cells at
         [j * stride] *)

type pending = {
  scratch : Scheme.t;
  kind : Scheme.kind;
  width : int;
  stride : int;
  rows : rows;
  mutable left : int;
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
  mutable next_wave : int;
      (* logical update-wave counter for provenance lineage: each
         [Update.wave] draws one id and stamps the RI rows it rewrites.
         Purely observational: build-time rows keep stamp 0. *)
}

let size t = Array.length t.adj

(* Node [v]'s index, fed its rows into a fresh store in the insert
   sequence the eager construction defines, so iteration (and with it
   every export's summation) order follows from the sequence alone.

   Rooted: deeper neighbours first, then equal-depth ones, each in
   adjacency order.  Equal-depth neighbours' creation waves cross on
   their link, so each holds the other's reach: the rows that let a
   query arrive at a node through two parents, the paper's cycle
   effect.  A node off the origin's component gets an empty index.

   Converged: the sequence {!build_converged} recorded. *)
let install t p v =
  let adj = t.adj.(v) in
  let ri =
    Scheme.create ~rows:(Array.length adj) p.kind ~width:p.width
      ~local:t.locals.(v)
  in
  let store = Scheme.rowstore ri in
  (match p.rows with
  | Reaches { depth; reach } ->
      let d = depth.(v) in
      if d < max_int then
        for deeper = 1 downto 0 do
          for k = 0 to Array.length adj - 1 do
            let x = adj.(k) in
            if depth.(x) = d + deeper && x <> v then
              Rowstore.load_row store ~peer:x reach ~pos:(x * p.stride)
          done
        done;
      Ri_obs.Metrics.incr m_installs_rooted
  | Links { start; peer; cells } ->
      for j = start.(v) to start.(v + 1) - 1 do
        Rowstore.load_row store ~peer:peer.(j) cells ~pos:(j * p.stride)
      done;
      Ri_obs.Metrics.incr m_installs_converged);
  t.ris.(v) <- ri;
  p.left <- p.left - 1;
  if p.left = 0 then t.pending <- None

(* Node [v]'s index, installed first if this is its first read. *)
let installed t v =
  (match t.pending with
  | Some p when t.ris.(v) == p.scratch -> install t p v
  | Some _ | None -> ());
  t.ris.(v)

let install_all t =
  match t.pending with
  | None -> ()
  | Some p -> Array.iteri (fun v ri -> if ri == p.scratch then install t p v) t.ris

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
  installed t v

let local_summary t v = t.locals.(v)

let raw_local_summary t v = t.content.summary v

let count_matching t v q = t.content.count_matching v q

let project_query t q =
  List.map (Compression.project_topic t.compression) q
  |> List.sort_uniq compare

let rng t = t.rng

let compression t = t.compression

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
    let exports = Scheme.export_all (installed t v) in
    (* No perturbation model: skip the identity [List.map] — this runs
       twice per delivered update message (pre/post exports). *)
    match t.perturb with
    | None -> exports
    | Some _ ->
        List.map (fun (p, payload) -> (p, maybe_perturb t payload)) exports

let outgoing_exports_except t v ~except =
  if not (has_ri t) then []
  else
    match t.perturb with
    | None -> Scheme.export_except (installed t v) ~except
    | Some _ ->
        (* Perturbation draws one rng sample per exported payload, so the
           skip would shift the stream: keep the full pass and filter. *)
        List.filter
          (fun ((p : int), _) -> not (List.exists (fun e -> e = p) except))
          (outgoing_exports t v)

let export_to t v ~peer =
  if not (has_ri t) then invalid_arg "Network.export_to: No-RI network";
  maybe_perturb t (Scheme.export (installed t v) ~exclude:(Some peer))

let set_local_summary t v summary =
  let s = Compression.project_summary t.compression summary in
  t.locals.(v) <- s;
  if has_ri t then Scheme.set_local (installed t v) s

let refresh_local t v = set_local_summary t v (t.content.summary v)

let pend t scratch rows =
  t.pending <-
    Some
      {
        scratch;
        kind = Scheme.kind scratch;
        width = Scheme.width scratch;
        stride = Rowstore.stride (Scheme.rowstore scratch);
        rows;
        left = Array.length t.ris;
      }

(* Exact converged RIs on a BFS spanning forest — equivalent to running
   the Figure 6 algorithm to quiescence on a cycle-free overlay — plus,
   on a cyclic overlay, one first-wave crossing per cycle-closing link.
   An up pass in reverse BFS order sends each node's aggregate toward
   its parent, and a down pass in BFS order sends each node's export to
   its children.  Under first-arrival (duplicate-suppressed) flooding,
   what crosses a non-tree link is the far endpoint's own subtree —
   everything on its parent side reaches the near endpoint faster over
   the tree — so the crossing row is the far endpoint's export
   excluding its tree parent, from the converged tree state.  That is
   what a finite history of dedup'd/damped creation waves leaves behind.
   (An exact fixed point of the export equations need not exist: an
   undamped CRI diverges on any cycle, and even damped schemes diverge
   once a node's degree exceeds the assumed fanout, as in power-law
   hubs.)  Update waves therefore judge significance against
   sender-carried baselines, not against state self-consistency — see
   {!Update}.

   One pass stages every directed link's row in a flat array, in the
   sequence of inserts an eager build makes into each node's store: its
   children's rows in up-pass order, its parent's row, then its crossing
   rows in link order.  A node's exports are computed over one scratch
   index, reset and fed the node's rows so far: the same sequence into
   the same fresh peer-table state, so every sum has the same operands
   in the same order.  A crossing row subtracts the parent's row from
   the full tree aggregate, as the eager build did; it is staged at the
   array's tail in the down pass and copied onto each of the node's
   non-tree links.  Perturbation draws once per row in the eager
   order: up pass, then down pass with each node's children in
   ascending id, then the links, far endpoints' rows first. *)
let build_converged t kind =
  let n = size t and adj = t.adj in
  (* Every node is reached: [parent] is -1 only at a component root. *)
  let { Graph.order; parent; _ } = Graph.bfs ~n (fun v -> adj.(v)) in
  (* Node [v]'s rows go from [start.(v)]; [fill.(v)] are staged so far.
     A node with fewer tree links than links gets a row at the tail for
     its crossing export ([crossing.(v)], else -1).  A component root
     has none: every neighbour of a root is its child. *)
  let start = Array.make (n + 1) 0 and fill = Array.make n 0 in
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v) + Array.length adj.(v);
    if parent.(v) >= 0 then begin
      fill.(v) <- fill.(v) + 1;
      fill.(parent.(v)) <- fill.(parent.(v)) + 1
    end
  done;
  let links = start.(n) in
  let crossing = Array.make n (-1) and tail = ref links in
  for v = 0 to n - 1 do
    if fill.(v) < Array.length adj.(v) then begin
      crossing.(v) <- !tail;
      incr tail
    end;
    fill.(v) <- 0
  done;
  (match (kind, t.policy) with
  | (Scheme.Cri_kind | Scheme.Hybrid_kind _), No_op when !tail > links ->
      (* The hybrid's beyond-horizon tail is as undamped as a compound
         RI, so it cannot ignore cycles either. *)
      invalid_arg
        "Network.create: a compound RI under the no-op cycle policy does \
         not terminate on a cyclic network (paper, Section 7)"
  | _ -> ());
  let scratch = t.ris.(0) in
  let store = Scheme.rowstore scratch in
  let stride = Rowstore.stride store in
  let peer = Array.make links 0 and cells = Array.make (!tail * stride) 0. in
  let load v =
    Rowstore.reset store;
    Scheme.set_local scratch t.locals.(v);
    for j = start.(v) to start.(v) + fill.(v) - 1 do
      Rowstore.load_row store ~peer:peer.(j) cells ~pos:(j * stride)
    done
  in
  (* Stages [v]'s next row, for [x]; returns its cell offset. *)
  let stage v x =
    let j = start.(v) + fill.(v) in
    peer.(j) <- x;
    fill.(v) <- fill.(v) + 1;
    j * stride
  in
  let perturb_at pos =
    if Option.is_some t.perturb then
      Scheme.blit_payload
        (maybe_perturb t (Scheme.payload_at scratch cells pos))
        cells pos
  in
  let work = Array.make stride 0. and none _ = -1 in
  for i = n - 1 downto 0 do
    let v = order.(i) in
    if parent.(v) >= 0 then begin
      load v;
      let up = stage parent.(v) v in
      Scheme.blit_exports scratch ~work ~all:up none cells;
      perturb_at up
    end
  done;
  for i = 0 to n - 1 do
    let v = order.(i) in
    let p = parent.(v) in
    if fill.(v) > (if p >= 0 then 1 else 0) || crossing.(v) >= 0 then begin
      load v;
      (* Each child's row for [v], and [v]'s crossing row, the export
         toward its parent, when it has one (a negative offset writes
         nothing). *)
      Scheme.blit_exports scratch ~work
        (fun x -> if x <> p then stage x v else crossing.(v) * stride)
        cells;
      if Option.is_some t.perturb then
        Array.iter
          (fun c ->
            if parent.(c) = v then perturb_at ((start.(c) + fill.(c) - 1) * stride))
          adj.(v)
    end
  done;
  (* [y]'s row for its non-tree neighbour [x]. *)
  let cross x y =
    let pos = stage y x in
    Array.blit cells (crossing.(x) * stride) cells pos stride;
    perturb_at pos
  in
  for u = n - 1 downto 0 do
    let a = adj.(u) in
    for k = Array.length a - 1 downto 0 do
      let v = a.(k) in
      if u < v && parent.(u) <> v && parent.(v) <> u then begin
        cross u v;
        cross v u
      end
    done
  done;
  pend t scratch (Links { start; peer; cells })

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
  let forest = Graph.bfs ~root:origin ~n (fun v -> t.adj.(v)) in
  let order = forest.order and depth = Graph.depths_in_place forest in
  let scratch = t.ris.(origin) in
  let store = Scheme.rowstore scratch in
  let stride = Rowstore.stride store in
  let reach = Array.make (n * stride) 0. in
  for i = forest.reached - 1 downto 0 do
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
  pend t scratch (Reaches { depth; reach })

let create ~graph ~content ?scheme ?(compression = Compression.exact)
    ?(cycle_policy = Detect_recover) ?(min_update = 0.01)
    ?(update_distance_floor = 1.0) ?perturb ?rng ?(mode = Converged) () =
  let n = Graph.n graph in
  (match mode with
  | Rooted origin when origin < 0 || origin >= n ->
      invalid_arg "Network.create: rooted origin out of range"
  | Rooted _ | Converged -> ());
  let adj = Array.init n (fun v -> Array.copy (Graph.neighbors graph v)) in
  let rng = match rng with Some r -> r | None -> Prng.create 0x5eed in
  let topics = Summary.topics (content.summary 0) in
  let width = Compression.width ~topics compression in
  let locals =
    Array.init n (fun v ->
        Compression.project_summary compression (content.summary v))
  in
  (* Every slot holds the build's scratch index until the node's
     first read installs its own ({!install}). *)
  let ris =
    match scheme with
    | None -> [||]
    | Some kind -> Array.make n (Scheme.create kind ~width ~local:locals.(0))
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
      next_wave = 0;
    }
  in
  (match (scheme, mode) with
  | None, _ -> Ri_obs.Metrics.incr m_builds_no_ri
  | Some _, Rooted origin ->
      Ri_obs.Metrics.incr m_builds_rooted;
      build_rooted t origin
  | Some kind, Converged ->
      Ri_obs.Metrics.incr m_builds_converged;
      build_converged t kind);
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
