(** Set-associative tag array with LRU replacement.

    Tracks which blocks are resident and, optionally, one [int] payload
    per way: the private L2 keeps each line's {!Linepool} slot there,
    while the L1 is tags only. Block numbers index the simulated physical
    space ({!Warden_mem.Addr.block_of}).

    Ways live in flat parallel arrays (no per-way records), so creating
    even a multi-megabyte cache is cheap, and every field is an immediate
    [int], so no update pays a write barrier. The [way] handle API
    ({!find_way}, {!peek_way}, {!hit}, {!value}) probes without
    allocating: misses return the {!hit}-false sentinel rather than
    [None]. Hits via {!find_way} are rotated to way 0 of their set
    (MRU-first scan order); LRU ordering itself lives in per-way
    timestamps and is unaffected. *)

type t

type way
(** Handle to one way of one set (a flat index). Valid until the set is
    restructured by an {!insert}/{!remove}, or until another {!find_way}
    on the same set rotates its contents. *)

val no_way : way
(** The {!hit}-false sentinel, for initializing stored way fields. *)

val create : sets:int -> ways:int -> payloads:bool -> t
(** [sets] must be a power of two. Without [payloads] the array is tags
    only: {!value} must not be called and {!iter}, {!insert} and
    {!save}/{!restore} ignore payloads. *)

val find_way : t -> int -> way
(** Allocation-free hit probe: refreshes the block's LRU position and
    rotates it to way 0. {!hit} is false on the returned way iff absent. *)

val peek_way : t -> int -> way
(** Pure probe: no LRU refresh, no rotation. *)

val promote_way : t -> int -> way -> way
(** [promote_way t blk w] is {!find_way} with the hit way supplied (say,
    from a {!peek_way} the caller already made): identical LRU-clock tick,
    rotation to way 0 and recency write, and the same returned way. [w]
    must currently hold [blk]. *)

val hit : way -> bool

val value : t -> way -> int
(** Payload of a way that {!hit}. Only valid on a hit. *)

val touch : t -> int -> bool
(** Residency test that refreshes the block's LRU position exactly like
    {!find_way}, rotation included. *)

val mem : t -> int -> bool
(** Residency test without touching LRU state. *)

val insert : t -> int -> int -> (int * int) option
(** [insert t blk payload] makes [blk] resident (replacing the payload if
    already present) and returns the [(block, payload)] evicted to make
    room, if any. Eviction takes the first empty way of the set, else the
    least recently used one (lowest way on ties). *)

val insert_absent : t -> int -> int -> unit
(** {!insert} for a block the caller has just probed absent, discarding
    any eviction: skips the re-probe and the option allocation, with
    identical tick consumption and way writes. *)

val remove : t -> int -> unit
(** Invalidate a block if it is resident. *)

val copy : t -> t
(** An independent array in the same state. *)

val iter : t -> (int -> int -> unit) -> unit
(** Visit every resident block with its payload (in flat way order; hit
    rotation means that is not insertion order). *)

val save :
  t -> Warden_util.Bin.w -> elt:(Warden_util.Bin.w -> int -> unit) -> unit
(** Snapshot tags, recency and resident payloads exactly — way positions
    included, so a restored cache replays probes bit-identically. [elt]
    writes each resident payload (a slot's line, say). *)

val restore : t -> Warden_util.Bin.r -> elt:(Warden_util.Bin.r -> int) -> unit
(** Overwrite a cache of identical geometry from {!save} output; [elt]
    reads each resident payload back. Raises [Warden_util.Bin.Corrupt] on
    a geometry mismatch or a tag or recency array of the wrong length,
    before changing anything. *)
