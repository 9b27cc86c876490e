(** Fixed-capacity event ring: stride-6 records in one flat int array.

    The hot-path recorder for full-mode tracing. [push] writes six ints
    and allocates nothing; when the ring is full the new record is
    rejected (the caller drains into a sink and retries, so records are
    only ever lost once the sink itself is saturated). Draining replays
    records oldest-first and empties the ring. *)

type t

val create : capacity:int -> t
(** Ring holding up to [capacity] records. *)

val push :
  t -> code:int -> cycle:int -> core:int -> blk:int -> arg:int -> seq:int ->
  bool
(** Append one record; [false] iff the ring is full (nothing written). *)

val length : t -> int

val drain :
  t ->
  (code:int -> cycle:int -> core:int -> blk:int -> arg:int -> seq:int -> unit) ->
  unit
(** Replay every record oldest-first, then clear the ring. *)
