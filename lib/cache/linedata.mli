(** Data payload of one cache line: 64 bytes plus a byte-granular dirty
    mask (the "byte sectoring" of WARDen §6.1, one mask bit per data byte).

    The mask records which bytes this copy has written since it was filled;
    WARDen's reconciliation merges concurrent copies of a line by writing
    back exactly the masked bytes of each copy.

    A [t] is a view: it names a line's storage rather than owning it.
    Lines resident in the simulated caches live in a {!Linepool}, and a
    view of a pooled line stays valid only until the next fill into that
    pool (DESIGN.md §10). {!create}, {!of_bytes} and {!copy} make
    standalone lines, which own their storage. *)

type t

val create : unit -> t
(** A standalone line: all-zero data, clean. *)

val of_bytes : Bytes.t -> t
(** A standalone line that takes ownership of a 64-byte buffer; clean. *)

val bytes : t -> Bytes.t
(** A fresh copy of the line's 64 data bytes. *)

val copy : t -> t
(** A standalone copy of the data and the mask. *)

val dirty_mask : t -> int64

val is_dirty : t -> bool

val clear_dirty : t -> unit

val mark_all_dirty : t -> unit
(** Set every mask bit (full-line dirty writeback, M-state semantics). *)

val load : t -> off:int -> size:int -> int64
(** Little-endian read of [size] ∈ {1,2,4,8} bytes at byte offset [off]. *)

val store : t -> off:int -> size:int -> int64 -> unit
(** Little-endian write; marks the written bytes dirty. *)

val fill_from : t -> t -> unit
(** [fill_from t src] overwrites [t]'s data with [src]'s and clears [t]'s
    dirty mask (a cache fill). *)

val merge_masked : dst:t -> src:t -> unit
(** Copy [src]'s dirty bytes into [dst]'s data and union the masks
    (merging a flushed private copy into a shared-cache line). *)

val write_back : t -> Warden_mem.Store.t -> int -> unit
(** [write_back t store blk] writes [t]'s dirty bytes into block [blk] of
    the backing store. *)

val range_mask : off:int -> size:int -> int64
(** Mask with bits [off .. off+size-1] set, expanded outward to the current
    sector granularity. *)

val save : t -> Warden_util.Bin.w -> unit
(** Snapshot: the 64 data bytes plus the dirty mask (DESIGN.md §15). *)

val restore : t -> Warden_util.Bin.r -> unit
(** Overwrite a line in place from {!save} output. *)

val set_sector_bytes : int -> unit
(** Set the write-tracking granularity (1, 2, 4 or 8 bytes; default 1).
    The paper uses byte sectoring "to match the smallest granularity in
    software" (§6.1); coarser sectors over-approximate the written range,
    which corrupts reconciliation merges of sub-sector false sharing —
    exposed as an ablation. Global; affects subsequently created masks. *)

val sector_bytes : unit -> int

(** {2 Line storage}

    Entry points for storage that keeps many lines in shared buffers
    ({!Linepool}). A line lives at byte [pos] of [buf], with its mask
    halves at [mask.(mi)] and [mask.(mi + 1)]. These do not allocate. *)

val view : Bytes.t -> pos:int -> int array -> mi:int -> t
(** Raises [Invalid_argument] unless the line's 64 bytes lie inside [buf]
    and both mask halves inside [mask]. *)

val load_in : Bytes.t -> pos:int -> off:int -> size:int -> int64
(** {!load} on the line at [pos]. [off] and [size] are checked; [pos] is
    not: the line must lie inside [buf], as {!view} requires. *)

val store_in :
  Bytes.t ->
  pos:int ->
  int array ->
  mi:int ->
  off:int ->
  size:int ->
  int64 ->
  unit
(** {!store} on the line at [pos]; unchecked like {!load_in}, and the
    mask halves must lie inside the mask array. *)

val fill_in : Bytes.t -> pos:int -> int array -> mi:int -> t -> unit
(** {!fill_from} into the line at [pos]. *)
