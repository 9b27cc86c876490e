(** The WARD region table: the directory-side storage of active WARD
    regions (§6.1).

    The paper models this as a CAM-like fully-associative structure holding
    up to a fixed number of [(lo, hi)] address pairs (16 bytes each; 1024
    entries cost <0.05% chip area). We reproduce the capacity limit —
    [add] refuses new regions when full, and the software simply forgoes
    marking — and provide the membership test the directory performs on
    every request.

    Regions may overlap; an address inside any region is WARD ("if an
    address is somehow found in more than one region, we just mark it as
    WARD"). *)

type t

val create : capacity:int -> t

val capacity : t -> int
val count : t -> int

val copy : t -> t
(** Independent copy: three flat arrays of [count t] entries. *)

val add : t -> lo:int -> hi:int -> bool
(** Register [\[lo, hi)]. Returns false (and stores nothing) when the table
    is full or the interval is empty. *)

val remove : t -> lo:int -> hi:int -> bool
(** Remove one exact occurrence of [\[lo, hi)]; false if not present. *)

val mem : t -> int -> bool
(** Is this address inside any active region? One binary search; does
    not allocate. *)

val block_in : t -> int -> bool
(** Is any byte of cache block [blk] inside an active region? This is the
    lookup the directory performs per request: one binary search, no
    allocation. *)

val iter : t -> (lo:int -> hi:int -> unit) -> unit

val clear : t -> unit

val save : t -> Warden_util.Bin.w -> unit
(** Snapshot the intervals — per distinct lower bound, ascending, its
    upper bounds newest first — plus the longest length ever added, a
    field lookups no longer use. *)

val restore : t -> Warden_util.Bin.r -> unit
(** Overwrite this table's intervals from {!save} output (the capacity
    stays the creating machine's). Raises [Warden_util.Bin.Corrupt] on
    lower bounds that are not strictly ascending, an empty interval or a
    count mismatch. *)
