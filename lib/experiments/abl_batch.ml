(** Ablation — batching updates (Section 4.3).

    "We may delay exporting an update for a short time so we can batch
    several updates, thus trading RI freshness for a reduced update
    cost."  Ten successive document arrivals at one node, propagated
    eagerly (ten waves) versus deferred through an {!Ri_p2p.Update.Batcher}
    (one wave). *)

open Ri_content
open Ri_p2p
open Ri_sim

let id = "abl-batch"

let title = "Eager vs. batched update propagation (ERI, 10 changes)"

let paper_claim =
  "Section 4.3: batching several updates into one export cuts update \
   cost, trading index freshness for traffic."

let changes = 10

(* Successive local summaries at the origin: each step adds one tenth of
   the batch the standard update trial would apply at once. *)
let grow_summary (s : Summary.t) ~topic ~docs =
  let by_topic = Array.copy s.Summary.by_topic in
  by_topic.(topic) <- by_topic.(topic) +. docs;
  Summary.make ~total:(s.Summary.total +. docs) ~by_topic

let run_once (cfg : Config.t) ~batched ~trial =
  let setup = Trial.build ~purpose:Trial.For_update cfg ~trial in
  let net = setup.Trial.network in
  let origin = setup.Trial.origin in
  let topic = 0 in
  let step =
    (* The same total volume as Trial.run_update's batch, in ten parts. *)
    let total = Placement.topic_total setup.Trial.placement topic in
    Float.max 1. (cfg.Config.update_fraction *. total /. float_of_int changes)
  in
  let counters = Message.create () in
  let current = ref (Network.raw_local_summary net origin) in
  if batched then begin
    let batcher = Update.Batcher.create net ~origin in
    for _ = 1 to changes do
      current := grow_summary !current ~topic ~docs:step;
      Update.Batcher.note_local_change batcher !current
    done;
    Update.Batcher.flush batcher ~counters
  end
  else
    for _ = 1 to changes do
      current := grow_summary !current ~topic ~docs:step;
      Update.local_change net ~origin ~summary:!current ~counters
    done;
  float_of_int counters.Message.update_messages

let run ~base ~spec =
  let cfg = Config.with_search base (Config.Ri (Config.eri base)) in
  let eager = Runner.run spec (fun ~trial -> run_once cfg ~batched:false ~trial) in
  let batched = Runner.run spec (fun ~trial -> run_once cfg ~batched:true ~trial) in
  let saving =
    if eager.Ri_util.Stats.mean > 0. then
      100. *. (1. -. (batched.Ri_util.Stats.mean /. eager.Ri_util.Stats.mean))
    else 0.
  in
  Report.make ~id ~title ~paper_claim
    ~header:[ "Strategy"; "Update msgs" ]
    ~rows:
      [
        [ Report.cell_text "eager (10 waves)"; Report.cell_mean eager ];
        [ Report.cell_text "batched (1 wave)"; Report.cell_mean batched ];
        [
          Report.cell_text "saving";
          Report.cell_number ~decimals:0 saving;
        ];
      ]
