(** Environment-variable knobs, parsed one way everywhere.

    The library reads a handful of tuning variables ([RI_JOBS],
    [RI_OBS], [RI_CACHE], ...); every consumer used to hand-roll its
    own parser.  These helpers centralize the policy: an
    unset value falls back to the default silently; a malformed or
    out-of-range value also falls back, but prints one warning per
    variable on stderr, so a typo degrades to the documented behavior
    instead of crashing a long batch run — or being silently ignored. *)

val int : ?min:int -> ?max:int -> string -> int -> int
(** [int name default] is the value of environment variable [name]
    parsed as an integer, or [default] when unset, unparsable, or
    outside [[min, max]] (defaults [1] and [max_int] — most knobs are
    positive counts).  Out-of-range and unparsable values warn once. *)

val float : ?min:float -> ?max:float -> string -> float -> float
(** [float name default], same policy; the range defaults to
    [[0., infinity]]. *)

val check_float :
  ?min:float -> ?max:float -> what:string -> float -> (float, string) result
(** The range check behind {!float}, exposed for strict consumers: [Ok]
    the value when it lies in [[min, max]] (same defaults), [Error] a
    human-readable message naming [what] otherwise.  NaN is always an
    error.  Unlike the env-variable readers this never warns or falls
    back — the CLI uses it to refuse out-of-range flag values outright. *)

val bool : string -> bool -> bool
(** [bool name default] accepts [1/true/yes/on] and [0/false/no/off]
    (case-insensitive); anything else warns once and falls back. *)

val string : string -> string -> string
(** [string name default] is the raw value, or [default] when unset. *)
