(** Binary min-heap priority queue keyed by integer priorities.

    Drives the discrete-event engine: priorities are cycle timestamps.
    Ties are broken by insertion order (FIFO), which keeps simulations
    deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> prio:int -> 'a -> unit

val min_prio : 'a t -> int option
(** Priority of the front element without removing it. *)

val min_prio_or : 'a t -> default:int -> int
(** Like {!min_prio} but allocation-free: returns [default] when empty.
    Used on the simulation engine's per-access fast path. *)

val peek : 'a t -> (int * 'a) option

val pop : 'a t -> (int * 'a) option
(** Remove and return the element with the smallest priority (FIFO among
    equal priorities). *)

val pop_exn : 'a t -> 'a
(** Allocation-free {!pop} returning only the payload.
    @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit
(** Empty the queue. Payload slots are reset, so cleared elements are not
    retained by the backing storage. *)
