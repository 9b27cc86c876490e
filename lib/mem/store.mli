(** Backing store for the simulated physical address space.

    This is the "DRAM" of the simulation: a sparse, paged byte store.
    Caches fill from and write back to it; the fork-join runtime's bump
    allocator hands out fresh addresses within it.

    Values are little-endian. Accesses of 1, 2, 4 or 8 bytes must not
    straddle an 8-byte boundary (the runtime's allocator guarantees natural
    alignment, and the simulator rejects anything else before it gets
    here). *)

type t

val create : unit -> t

val load : t -> Addr.t -> size:int -> int64
(** [load t addr ~size] reads [size] ∈ {1,2,4,8} bytes, zero-extended.
    Unwritten memory reads as zero. *)

val store : t -> Addr.t -> size:int -> int64 -> unit
(** [store t addr ~size v] writes the low [size] bytes of [v]. *)

val read_block : t -> int -> Bytes.t
(** [read_block t blk] copies the 64 bytes of block [blk] into a fresh
    buffer. *)

val write_block_masked : t -> int -> Bytes.t -> mask:int64 -> unit
(** [write_block_masked t blk data ~mask] writes back byte [i] of [data]
    into block [blk] for every bit [i] set in [mask]. This is how dirty
    sectors reach memory. *)

val read_block_into : t -> int -> Bytes.t -> pos:int -> unit
(** [read_block_into t blk dst ~pos] copies the 64 bytes of block [blk]
    into [dst] at [pos] (a cache fill straight into line storage). *)

val write_line : t -> int -> Bytes.t -> pos:int -> lo:int -> hi:int -> unit
(** {!write_block_masked} for a line at [pos] of [data] whose mask is
    given as its two 32-bit halves ({!Sector}). *)

val materialized : t -> int -> bool
(** Has cache block [blk] ever been written in memory (by a program
    writeback or host initialization)? Blocks that never were are known
    all-zero: the memory controller can zero-fill them without a DRAM
    access, the way an OS zero-fills fresh pages. *)

val footprint_bytes : t -> int
(** Number of bytes of simulated memory materialized so far. *)

val save : t -> Warden_util.Bin.w -> unit
(** Snapshot the page table (sorted by page id) and the written-block
    set; the one-entry page cache is host-side and resets on restore. *)

val restore : t -> Warden_util.Bin.r -> unit
(** Replace this store's contents with {!save} output. *)
