(** Generic set-associative cache array with LRU replacement.

    Tracks which blocks are resident and carries an arbitrary payload per
    line (coherence state, data, ...). Used for the private L1/L2 tag
    arrays and the shared L3 slices. Block numbers index the simulated
    physical space ({!Warden_mem.Addr.block_of}).

    Ways live in flat parallel arrays (three [Array.make] calls per
    cache, no per-way records), so creating even a multi-megabyte LLC
    slice is cheap. Payloads are stored unboxed; absent ways hold the
    [dummy] payload supplied at creation. The [way] handle API
    ({!find_way}, {!peek_way}, {!hit}, {!value}) probes without
    allocating: misses return the {!hit}-false sentinel rather than
    [None]. Hits via {!find_way} are rotated to way 0 of their set
    (MRU-first scan order); LRU ordering itself lives in per-way
    timestamps and is unaffected. *)

type 'a t

type way
(** Handle to one way of one set (a flat index). Valid until the set is
    restructured by an {!insert}/{!remove}/{!clear}, or until another
    {!find_way} on the same set rotates its contents. *)

val no_way : way
(** The {!hit}-false sentinel, for initializing stored way fields. *)

val create : sets:int -> ways:int -> dummy:'a -> 'a t
(** [sets] must be a power of two. [dummy] fills absent ways; it is never
    returned from a hit. *)

val sets : 'a t -> int
val ways : 'a t -> int
val capacity_blocks : 'a t -> int

val find_way : 'a t -> int -> way
(** Allocation-free hit probe: refreshes the block's LRU position and
    rotates it to way 0. {!hit} is false on the returned way iff absent. *)

val peek_way : 'a t -> int -> way
(** Pure probe: no LRU refresh, no rotation. *)

val touch_way : 'a t -> way -> unit
(** Refresh the LRU position of a way obtained from {!find_way} or
    {!peek_way} (which must have hit). Does not rotate — safe while other
    way handles into the same set are live. *)

val promote_way : 'a t -> int -> way -> way
(** [promote_way t blk w] is {!find_way} with the hit way supplied (say,
    from a {!peek_way} the caller already made): identical LRU-clock tick,
    rotation to way 0 and recency write, and the same returned way. [w]
    must currently hold [blk]. *)

val hit : way -> bool

val value : 'a t -> way -> 'a
(** Payload of a way that {!hit}. Only valid on a hit. *)

val find : 'a t -> int -> 'a option
(** [find t blk] returns the payload if resident and refreshes its LRU
    position. Allocating wrapper over {!find_way} for cold paths. *)

val peek : 'a t -> int -> 'a option
(** [peek t blk] returns the payload if resident {e without} refreshing its
    LRU position — a pure probe, for fast-path hit tests that must not
    commit any state change. *)

val touch : 'a t -> int -> bool
(** Residency test that refreshes the block's LRU position exactly like
    {!find}, without allocating. *)

val mem : 'a t -> int -> bool
(** Residency test without touching LRU state. *)

val set_index : 'a t -> int -> int
(** The set a block maps to. *)

val would_evict : 'a t -> int -> (int * 'a) option
(** The (block, payload) that {!insert} of this block would displace, if
    the set is full and the block is not already resident. *)

val insert : 'a t -> int -> 'a -> (int * 'a) option
(** [insert t blk payload] makes [blk] resident (replacing the payload if
    already present) and returns the victim evicted to make room, if any. *)

val insert_absent : 'a t -> int -> 'a -> unit
(** {!insert} for a block the caller has just probed absent, discarding
    any eviction: skips the re-probe and the option allocation, with
    identical tick consumption and way writes. *)

val remove : 'a t -> int -> 'a option
(** Invalidate a block, returning its payload if it was resident. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Visit every resident block (no particular order; hit rotation means
    way order is not insertion order). *)

val iter_range : 'a t -> lo_block:int -> hi_block:int -> (int -> 'a -> unit) -> unit
(** Visit resident blocks with number in [\[lo_block, hi_block)]. *)

val population : 'a t -> int

val clear : 'a t -> unit

val save : 'a t -> Warden_util.Bin.w -> elt:(Warden_util.Bin.w -> 'a -> unit) -> unit
(** Snapshot tags, recency and resident payloads exactly — way positions
    included, so a restored cache replays probes bit-identically. *)

val restore : 'a t -> Warden_util.Bin.r -> elt:(Warden_util.Bin.r -> 'a) -> unit
(** Overwrite a cache of identical geometry from {!save} output.
    Raises [Warden_util.Bin.Corrupt] on a geometry mismatch. *)
