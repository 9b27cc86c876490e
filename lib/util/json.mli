(** A writer for the flat JSON objects the harness and the serving tier
    emit. Every object has one style, [{"k": v, "k": v}], on one line.
    There is no reader: results are judged in memory, never read back. *)

type value

val int : int -> value
val bool : bool -> value

val string : string -> value
(** Escaped on output: ['"'], ['\\'] and control characters. *)

val float : ?decimals:int -> float -> value
(** [%.<decimals>f] when [decimals] is given, else [%g]. *)

val obj : (string * value) list -> string
(** The object, fields in list order. Raises [Invalid_argument] naming
    the key when a float is NaN or infinite, which JSON cannot hold. *)
