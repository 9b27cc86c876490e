(** Growable set of small non-negative integers (core ids, sharer sets). *)

type t

val create : unit -> t
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool
val iter : t -> (int -> unit) -> unit
(** Ascending order. *)

val elements : t -> int list
(** Ascending order. *)

val choose : t -> int option
(** Smallest element. *)
