(** Live observability endpoint: a dependency-free [Unix] HTTP server
    on its own domain serving [/metrics] (Prometheus text),
    [/progress] (JSON run status), [/traffic] (JSON traffic-observatory
    snapshot) and [/healthz] during a run.

    Handlers read only atomic {!Progress} fields and registry
    snapshots taken under their own locks, never simulation state, so
    serving cannot perturb the deterministic pipeline.  Binds
    [127.0.0.1] by default — the endpoint is a local diagnostic
    surface, not a public one. *)

(** Run-status fields behind [/progress], stored by the run loop (one
    store per wave / sweep point) and read by server handlers. *)
module Progress : sig
  val begin_run : ?label:string -> total:int -> unit -> unit
  (** Reset the clock and counters for a new run of [total] trials;
      the label is kept unless a new one is given. *)

  val set_label : string -> unit
  (** Name the current sweep point (e.g. ["fig13"] or ["traffic qps=2000"]). *)

  val set_trials : int -> unit
  (** Store the number of completed trials. *)

  val json : unit -> string
  (** [{"phase":..,"label":..,"trials_done":..,"trials_total":..,
      "elapsed_s":..,"eta_s":..,"sketches":{..}}] — [eta_s] is [null]
      until at least one trial has finished. *)
end

(** Live traffic-observatory snapshot behind [/traffic]: the open-loop
    driver publishes one complete JSON document per finished sweep
    point (points so far, decomposition, hotspots, knee), and handlers
    read it whole — a scrape racing a publish still sees valid JSON. *)
module Traffic : sig
  val publish : string -> unit
  (** Replace the snapshot.  The argument must be a complete JSON
      document; {!Ri_experiments.Traffic} renders it. *)

  val clear : unit -> unit
  (** Back to the empty-state body (valid JSON, no points). *)

  val json : unit -> string
end

type t

val start : ?bind:string -> port:int -> metrics:(unit -> string) -> unit -> t
(** Bind, listen and serve on a fresh domain.  [metrics] produces the
    [/metrics] body per request.  [port] 0 picks an ephemeral port —
    read it back with {!port}.
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int

val stop : t -> unit
(** Stop accepting, join the serving domain and release the socket.
    Idempotent in effect but call it once. *)
