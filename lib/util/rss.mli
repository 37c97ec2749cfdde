(** Process resident-set size, for memory reporting that sees past the
    OCaml heap (the runtime's own allocations, malloc'd bigarrays).

    A Linux-only probe over procfs; on other platforms it returns [None]
    and callers should fall back to [Gc] statistics. *)

val peak_mb : unit -> float option
(** Lifetime peak resident set in MB ([VmHWM] from [/proc/self/status]). *)
