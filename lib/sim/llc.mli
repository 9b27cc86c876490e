(** The shared last-level cache: one set-associative slice per socket,
    address-interleaved, backed by the simulated DRAM ({!Warden_mem.Store}).

    Lines carry byte-granular dirty masks so that WARDen's sectored
    writebacks and reconciliation merges can land here before reaching
    memory. Dirty evictions write the masked bytes back to the store.
    Each slice keeps its lines by slot in a {!Warden_cache.Linepool}. *)

type t

val create :
  ?on_dram_write:(unit -> unit) ->
  Warden_machine.Config.t ->
  Warden_mem.Store.t ->
  t
(** An empty LLC over the given store. [on_dram_write] is called once per
    dirty victim written back to memory (default: nothing); its owner
    counts and charges the DRAM write there. *)

val store : t -> Warden_mem.Store.t

val read :
  t ->
  socket:int ->
  blk:int ->
  Warden_cache.Linedata.t * [ `L3 | `Dram | `Zero ]
(** The resident line of [blk] in the slice, filling from memory on a
    miss; reports the source ([`Zero]: the block was never written, so it
    is zero-filled at the LLC without a DRAM access). The line is a view
    of the slice's slot, valid until the next fill into that slice —
    callers copy it into private lines ([Linedata.fill_from]). *)

val peek : t -> socket:int -> blk:int -> Warden_cache.Linedata.t option
(** The resident line of [blk], if any; unlike {!read}, it changes nothing. *)

val merge : t -> socket:int -> blk:int -> Warden_cache.Linedata.t -> unit
(** Merge a private copy's dirty bytes into the resident line (fetching the
    base from memory first if absent). *)

val put_full : t -> socket:int -> blk:int -> Warden_cache.Linedata.t -> unit
(** Full-line dirty install of a copy's data (M-state writeback). *)

val copy : t -> Warden_mem.Store.t -> on_dram_write:(unit -> unit) -> t
(** An independent LLC in the same state, backed by the given store and
    reporting its victims' writebacks to [on_dram_write]. *)

val flush_to_store : t -> unit
(** Write every dirty line back to memory (end-of-run drain). Unlike a
    victim's writeback, this is not reported to [on_dram_write]. *)

val save : t -> Warden_util.Bin.w -> unit
(** Snapshot every slice's tag store (the backing store is serialized
    separately by its owner). *)

val restore : t -> Warden_util.Bin.r -> unit
(** Overwrite slices of identical geometry from {!save} output. Raises
    [Warden_util.Bin.Corrupt] on a geometry mismatch. *)

val chunks_stats : t -> int * int
(** [(allocated, total)] 32-set chunks of slice metadata across all
    sockets: the chunks some insert has touched versus all of them (the
    scale bench reports this). *)
