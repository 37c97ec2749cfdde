(** Process resident-set size, for memory reporting that sees past the
    OCaml heap (the runtime's own allocations, malloc'd bigarrays).

    Linux-only probes over procfs; on other platforms every function
    returns [None] and callers should fall back to [Gc] statistics. *)

val resident_mb : unit -> float option
(** Current resident set in MB ([/proc/self/statm]). *)

val peak_mb : unit -> float option
(** Lifetime peak resident set in MB ([VmHWM] from [/proc/self/status]). *)
