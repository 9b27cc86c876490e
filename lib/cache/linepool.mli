(** Cache lines stored by slot in flat, paged storage.

    A cache keeps its lines' bytes, dirty masks and states here rather
    than in one heap object per line, so a fill allocates nothing, a store
    boxes no mask, and moving a line between ways moves an [int] slot. A
    page holds up to 64 slots: 64 data bytes, two 32-bit dirty-mask
    halves and one state [int] per slot (its meaning is the owner's).
    Pages are allocated on demand and never move, so a {!view} stays
    pointed at its slot while the pool grows. A freed slot is reused
    before a new page is added, and a pool starts with no pages
    (DESIGN.md §10). *)

type t

val page_slots : int
(** The largest page: 64 slots. *)

val create : ?capacity:int -> unit -> t
(** An empty pool: no pages. A page holds [capacity] slots — the owning
    cache's lines — up to {!page_slots}, the default; slot numbers keep
    the 64-slot layout, so a smaller page leaves gaps between pages. *)

val alloc : t -> int
(** A free slot, adding a page only when none is free. Its data, mask
    and state are whatever the slot last held: fill it before use. *)

val free : t -> int -> unit
(** Return a slot. Its bytes and mask are left as they were, so a view
    taken before the free reads the same line until the slot is
    reallocated. *)

val reset : t -> unit
(** Free every slot, keeping the pages. *)

val pages : t -> int
(** Pages allocated so far. *)

val state : t -> int -> int
val set_state : t -> int -> int -> unit

val view : t -> int -> Linedata.t
(** The slot's line. Valid until the slot is next allocated. *)

val fill : t -> int -> Linedata.t -> unit
(** Copy a line's data into the slot and clear the slot's mask. *)

val fill_zero : t -> int -> unit
(** Zero the slot's data and clear its mask. *)

val fill_block : t -> int -> Warden_mem.Store.t -> int -> unit
(** [fill_block t s store blk] copies block [blk] of the backing store
    into the slot and clears its mask. *)

val mark_all_dirty : t -> int -> unit

val load : t -> int -> off:int -> size:int -> int64
val store : t -> int -> off:int -> size:int -> int64 -> unit
(** {!Linedata.load} and {!Linedata.store} on a slot, without a view. *)

val is_dirty : t -> int -> bool

val copy : t -> t
(** An independent pool in the same state. *)
