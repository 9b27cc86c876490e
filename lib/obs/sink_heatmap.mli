(** Per-block and per-region aggregation sink.

    Blocks accumulate one counter per {!Events.heat_class} column (misses,
    invalidations, downgrades, WARD grants, reconciliations); regions —
    keyed by their low address — accumulate activations, deactivations and
    reconciliation-flushed blocks. Rows are dense indices behind an
    {!Warden_util.Itab}; block rows live in pages that never move, so
    steady-state updates are one probe plus one increment, a new block
    costs one row and no regrowth copy, and the iteration order used by
    {!render_blocks} is deterministic (sorted). *)

type t

val create : unit -> t

val touch_block : t -> blk:int -> cls:int -> unit
(** Bump block [blk]'s column [cls] (a {!Events.heat_class}). *)

val mark_ward : t -> blk:int -> unit
(** Record that [blk] was covered by a WARD region at some point. *)

val touch_region : t -> lo:int -> hi:int -> exit:bool -> flushed:int -> unit
(** Record a region activation ([exit = false]) or deactivation (with the
    number of blocks reconciliation flushed). *)

val blocks : t -> int
(** Distinct blocks with at least one event. *)

val block_count : t -> blk:int -> cls:int -> int

val top_blocks : t -> n:int -> (int * int array * bool) list
(** The [n] hottest blocks as [(blk, per-class counts, ever-warded)],
    sorted by total event count descending (ties by block number). *)

val regions : t -> (int * int * int * int * int) list
(** Region rows [(lo, hi, enters, exits, flushed_blocks)] sorted by [lo]. *)

val render_blocks : t -> n:int -> string
(** ASCII table of the [n] hottest blocks. *)

val render_regions : t -> string
(** ASCII table of every WARD region seen. *)
