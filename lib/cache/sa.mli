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

val remove : t -> int -> bool
(** Invalidate a block if it is resident, without touching LRU state;
    whether it was. *)

val take : t -> int -> int
(** [take t blk] is {!find_way} then {!remove} in one probe: the same
    LRU-clock tick, way 0's contents moved into the hit way, and way 0
    left empty. Returns the removed way's payload, or -1 when [blk] is
    absent (a tags-only array returns -1 either way). *)

val copy : t -> t
(** An independent array in the same state. *)

val iter : t -> (int -> int -> unit) -> unit
(** Visit every resident block with its payload (in flat way order; hit
    rotation means that is not insertion order). *)

val save :
  t -> Warden_util.Bin.w -> elt:(Warden_util.Bin.w -> int -> unit) -> unit
(** Snapshot the geometry, the LRU clock and the number of resident
    ways, then each resident way as (set, way, block, last use) followed
    by its payload, which [elt] writes (a slot's line, say), in
    ascending (set, way) order. Way positions are state: a restored
    cache replays probes bit-identically. *)

val restore : t -> Warden_util.Bin.r -> elt:(Warden_util.Bin.r -> int) -> unit
(** Overwrite a cache of identical geometry from {!save} output; [elt]
    reads each resident payload back. Raises [Warden_util.Bin.Corrupt],
    naming the fault and leaving the cache unchanged, on a geometry
    mismatch, a way count the cache cannot hold, a way or set out of
    range, ways not in (set, way) order, a block outside its set or
    stored twice, or recency below 1 or ahead of the clock. *)

(** {2 The snapshot format, shared with {!Csa}} *)

val save_ways :
  Warden_util.Bin.w -> sets:int -> ways:int -> tick:int -> count:int ->
  ((int -> int -> int -> int -> int -> unit) -> unit) ->
  elt:(Warden_util.Bin.w -> int -> unit) -> unit
(** Write the header, then the [count] ways the iterator visits as
    [f set way blk last_use payload], in (set, way) order. *)

val load_ways :
  string -> Warden_util.Bin.r -> sets:int -> ways:int ->
  elt:(Warden_util.Bin.r -> int) ->
  (int -> int -> int -> int -> int -> unit) -> int
(** Read {!save_ways} output, handing each way to [f] as above, and
    return the clock. Raises [Warden_util.Bin.Corrupt], the message
    prefixed by the string, on every fault {!restore} names but a
    duplicate block, which [f] checks. *)
