(* Traffic observatory: per-node hotspot attribution, end-to-end latency
   decomposition and a logical-time timeline for the discrete-event
   engine.

   Three cooperating pieces, all feeding off logical-nanosecond stamps
   so every export is a pure function of (seed, trial):

   - [decomp]: per-point accumulator splitting completed-query latency
     into queue-wait + service + link-transit.  The split is exact by
     construction — a sequential message chain's end-to-end time is the
     integer sum of its per-hop link, wait and service times — and the
     traffic tests pin the invariant.

   - [node_acc] / [hotspot]: flat per-node accumulators (busy-ns,
     queue-wait-ns, peak depth, critical-hop counts) merged across
     trials element-wise and ranked into a top-K table.  The rank key
     is queue-wait-ns — where time is lost, not merely spent.

   - [Timeline]: a fixed-bin logical-time ring of arrivals /
     completions / aggregate backlog per trial, flushed as the
     [Timeline] entries of the trial's {!Span} log and merged by its
     (unit, trial) rule, so the JSONL export is byte-identical at any
     pool width.  Recording is off by default; when off, the only cost
     at a capture site is the sink's [is_live] load and branch. *)

(* ------------------------------------------------------------------ *)
(* Latency decomposition.                                               *)

type decomp = {
  mutable d_queries : int;
  mutable d_total_ns : int;
  mutable d_queue_ns : int;
  mutable d_service_ns : int;
  mutable d_link_ns : int;
}

let decomp_zero () =
  { d_queries = 0; d_total_ns = 0; d_queue_ns = 0; d_service_ns = 0; d_link_ns = 0 }

let decomp_add d ~total_ns ~queue_ns ~service_ns ~link_ns =
  d.d_queries <- d.d_queries + 1;
  d.d_total_ns <- d.d_total_ns + total_ns;
  d.d_queue_ns <- d.d_queue_ns + queue_ns;
  d.d_service_ns <- d.d_service_ns + service_ns;
  d.d_link_ns <- d.d_link_ns + link_ns

let decomp_merge ~into d =
  into.d_queries <- into.d_queries + d.d_queries;
  into.d_total_ns <- into.d_total_ns + d.d_total_ns;
  into.d_queue_ns <- into.d_queue_ns + d.d_queue_ns;
  into.d_service_ns <- into.d_service_ns + d.d_service_ns;
  into.d_link_ns <- into.d_link_ns + d.d_link_ns

let decomp_exact d =
  d.d_total_ns = d.d_queue_ns + d.d_service_ns + d.d_link_ns

let decomp_queue_share d =
  if d.d_total_ns = 0 then 0.
  else float_of_int d.d_queue_ns /. float_of_int d.d_total_ns

(* ------------------------------------------------------------------ *)
(* Per-node hotspot accumulation.                                       *)

type node_acc = {
  nodes : int;
  a_arrivals : int array;
  a_completions : int array;
  a_busy_ns : int array;
  a_wait_ns : int array;
  a_peak : int array;  (* merged with max, not (+) *)
  a_critical : int array;
      (* completed queries whose largest queue-wait hop was here *)
}

let acc_create nodes =
  if nodes <= 0 then invalid_arg "Observatory.acc_create: nodes must be positive";
  {
    nodes;
    a_arrivals = Array.make nodes 0;
    a_completions = Array.make nodes 0;
    a_busy_ns = Array.make nodes 0;
    a_wait_ns = Array.make nodes 0;
    a_peak = Array.make nodes 0;
    a_critical = Array.make nodes 0;
  }

let acc_merge ~into src =
  if into.nodes <> src.nodes then
    invalid_arg "Observatory.acc_merge: node count mismatch";
  for v = 0 to into.nodes - 1 do
    into.a_arrivals.(v) <- into.a_arrivals.(v) + src.a_arrivals.(v);
    into.a_completions.(v) <- into.a_completions.(v) + src.a_completions.(v);
    into.a_busy_ns.(v) <- into.a_busy_ns.(v) + src.a_busy_ns.(v);
    into.a_wait_ns.(v) <- into.a_wait_ns.(v) + src.a_wait_ns.(v);
    if src.a_peak.(v) > into.a_peak.(v) then into.a_peak.(v) <- src.a_peak.(v);
    into.a_critical.(v) <- into.a_critical.(v) + src.a_critical.(v)
  done

type hotspot = {
  h_node : int;
  h_arrivals : int;
  h_completions : int;
  h_busy_ns : int;
  h_wait_ns : int;
  h_peak : int;
  h_critical : int;
  h_utilization : float;
}

(* Rank by queue-wait first (congestion cost), then busy time, then the
   node id for a total, deterministic order. *)
let hotter a b =
  if a.h_wait_ns <> b.h_wait_ns then compare b.h_wait_ns a.h_wait_ns
  else if a.h_busy_ns <> b.h_busy_ns then compare b.h_busy_ns a.h_busy_ns
  else compare a.h_node b.h_node

let hotspots acc ~makespan_ns ~k =
  if k <= 0 then []
  else begin
    let util busy =
      if makespan_ns <= 0 then 0.
      else float_of_int busy /. float_of_int makespan_ns
    in
    let all = ref [] in
    for v = acc.nodes - 1 downto 0 do
      if acc.a_arrivals.(v) > 0 then
        all :=
          {
            h_node = v;
            h_arrivals = acc.a_arrivals.(v);
            h_completions = acc.a_completions.(v);
            h_busy_ns = acc.a_busy_ns.(v);
            h_wait_ns = acc.a_wait_ns.(v);
            h_peak = acc.a_peak.(v);
            h_critical = acc.a_critical.(v);
            h_utilization = util acc.a_busy_ns.(v);
          }
          :: !all
    done;
    let sorted = List.sort hotter !all in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    take k sorted
  end

let hotspot_json h =
  Printf.sprintf
    "{\"node\": %d, \"arrivals\": %d, \"completions\": %d, \"busy_ns\": %d, \
     \"queue_wait_ns\": %d, \"peak_depth\": %d, \"critical_hops\": %d, \
     \"utilization\": %.4f}"
    h.h_node h.h_arrivals h.h_completions h.h_busy_ns h.h_wait_ns h.h_peak
    h.h_critical h.h_utilization

(* ------------------------------------------------------------------ *)
(* Timeline: fixed-bin ring over logical time.                          *)

(* One bin's worth of activity; depth is the engine-wide waiting
   backlog sampled at every recorded event in the bin. *)
type bin = {
  t_bin : int;
  t_start_ns : int;
  t_width_ns : int;
  t_arrivals : int;
  t_completions : int;
  t_depth_sum : int;
  t_samples : int;
  t_depth_peak : int;
}

type Span.entry += Bin of bin

let is_live s = Span.live Span.Timeline s

module Timeline = struct
  type t = {
    width_ns : int;
    arrivals : int array;
    completions : int array;
    depth_sum : int array;
    samples : int array;
    depth_peak : int array;
  }

  let create ~bins ~width_ns =
    if bins <= 0 then invalid_arg "Timeline.create: bins must be positive";
    if width_ns <= 0 then
      invalid_arg "Timeline.create: width_ns must be positive";
    {
      width_ns;
      arrivals = Array.make bins 0;
      completions = Array.make bins 0;
      depth_sum = Array.make bins 0;
      samples = Array.make bins 0;
      depth_peak = Array.make bins 0;
    }

  (* The ring is fixed: logical times past the last bin (the drain
     overhang of an overloaded sweep) clamp into it, so the export
     always has a bounded, pre-known shape. *)
  let index t ~at =
    let i = at / t.width_ns in
    let last = Array.length t.arrivals - 1 in
    if i < 0 then 0 else if i > last then last else i

  let sample t i ~depth =
    t.depth_sum.(i) <- t.depth_sum.(i) + depth;
    t.samples.(i) <- t.samples.(i) + 1;
    if depth > t.depth_peak.(i) then t.depth_peak.(i) <- depth

  let arrival t ~at ~depth =
    let i = index t ~at in
    t.arrivals.(i) <- t.arrivals.(i) + 1;
    sample t i ~depth

  let completion t ~at ~depth =
    let i = index t ~at in
    t.completions.(i) <- t.completions.(i) + 1;
    sample t i ~depth

  (* Push the non-empty bins, in bin order, into the trial's sink; the
     span log then merges trials by (unit, trial) at render time. *)
  let flush t sink =
    if is_live sink then
      Array.iteri
        (fun i a ->
          if a > 0 || t.completions.(i) > 0 then
            Span.push Span.Timeline sink
              (Bin
                 {
                   t_bin = i;
                   t_start_ns = i * t.width_ns;
                   t_width_ns = t.width_ns;
                   t_arrivals = a;
                   t_completions = t.completions.(i);
                   t_depth_sum = t.depth_sum.(i);
                   t_samples = t.samples.(i);
                   t_depth_peak = t.depth_peak.(i);
                 }))
        t.arrivals
end

(* ------------------------------------------------------------------ *)
(* Export.                                                              *)

let render_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ((u, trial), bins) ->
      List.iter
        (fun b ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"unit\":%d,\"trial\":%d,\"bin\":%d,\"start_ns\":%d,\"width_ns\":%d,\"arrivals\":%d,\"completions\":%d,\"depth_sum\":%d,\"samples\":%d,\"depth_peak\":%d}\n"
               u trial b.t_bin b.t_start_ns b.t_width_ns b.t_arrivals
               b.t_completions b.t_depth_sum b.t_samples b.t_depth_peak))
        bins)
    (Span.view (function Bin b -> Some b | _ -> None));
  Buffer.contents buf

let export_jsonl path = Span.export path render_jsonl
