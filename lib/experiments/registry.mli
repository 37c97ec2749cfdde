(** Catalogue of the paper's experiments. *)

type experiment = {
  id : string;  (** short handle, e.g. ["fig13"] *)
  title : string;
  run : base:Ri_sim.Config.t -> spec:Ri_sim.Runner.spec -> Report.t;
}

val all : experiment list
(** Figures 13-20 plus the flooding comparison, in paper order. *)

val extensions : experiment list
(** Ablations of extensions the paper sketches but does not evaluate:
    the hybrid CRI-HRI (Section 6.2), the HRI horizon and ERI decay as
    design variables, undercount/mixed/Gaussian error models (Section
    8.2's omitted runs), parallel forwarding (Section 3.1), and update
    batching (Section 4.3). *)

val find : string -> experiment option
(** Looks in {!all} and {!extensions}. *)

val ids : string list
(** Ids of {!all} (the paper's figures only). *)

val extension_ids : string list
