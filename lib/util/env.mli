(** The range check behind the simulator's float settings.

    The CLI's float flags and the traffic driver's option check apply
    one policy: a value outside its range is refused with a
    message naming the setting, never clamped or silently replaced. *)

val check_float :
  ?min:float -> ?max:float -> what:string -> float -> (float, string) result
(** [Ok] the value when it lies in [[min, max]] (defaults [0.] and
    [infinity]), [Error] a human-readable message naming [what]
    otherwise.  NaN is always an error. *)
