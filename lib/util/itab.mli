(** Open-addressing hash table keyed by non-negative ints, without
    deletion. One linear probe per lookup; grows at 50% load.

    [dummy] fills empty value slots and is never returned from a hit. *)

type 'a t

val create : dummy:'a -> unit -> 'a t

val find_or_add : 'a t -> int -> make:(int -> 'a) -> 'a
(** [find_or_add t id ~make] returns the value bound to [id], binding
    [make id] first if absent. [id] must be non-negative. *)

val find_or : 'a t -> int -> default:'a -> 'a
(** Pure, allocation-free probe: the value bound to [id], or [default] if
    absent. Mutates nothing. *)

val mem : 'a t -> int -> bool

val length : 'a t -> int

val iter : 'a t -> (int -> 'a -> unit) -> unit
