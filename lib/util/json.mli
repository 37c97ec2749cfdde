(** Strict JSON parsing and printing.

    A minimal RFC 8259 recursive-descent parser for the observability
    plane: the report dashboard reads decision, traffic and timeline
    exports, the ledger reads and writes its result files, and the test
    suite validates that every emitted trace line is well-formed.
    Strict means strict — no trailing garbage, no bare control
    characters, no NaN/Infinity literals — so a malformed export is a
    test failure, not a silently tolerated quirk. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON document.  The whole input must be consumed
    (trailing whitespace excepted); the error string carries a byte
    offset. *)

val parse_exn : string -> t
(** @raise Invalid_argument on a parse error. *)

(** {2 Accessors} — shape-checked projections, [None] on mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an object; [None] on non-objects. *)

val to_float : t -> float option

val to_int : t -> int option
(** Numbers with an integral value only. *)

val to_string : t -> string option

val to_bool : t -> bool option

val to_list : t -> t list option

val to_obj : t -> (string * t) list option

(** {2 Printing} *)

val escape : string -> string
(** JSON string-body escaping, byte-compatible with the trace and
    decision exporters (['"'], ['\\'], newline, and [\uXXXX] for other
    control bytes). *)

val render : t -> string
(** Compact single-line rendering; floats print as [%.9g] (integral
    values as integers), matching the exporters' number format. *)
