(** One core's private cache hierarchy: an L1 tag array inclusive in an L2
    that holds the data and coherence state.

    The directory tracks private hierarchies as single coherent units (the
    usual simplification: L1/L2 are latency levels of one private copy).
    Coherence events against a line are counted per level holding it, as
    the paper counts them.

    Resident lines live by slot in the core's {!Warden_cache.Linepool}:
    the L2's way payload is the slot, and the pool holds the line's bytes,
    dirty mask and state. A slot is valid until its line is evicted or
    invalidated. *)

type t

val create :
  Warden_machine.Config.t ->
  evict:(blk:int -> Warden_proto.States.pstate -> Warden_cache.Linedata.t -> unit) ->
  t
(** [evict] is called with each line displaced from L2 (the private
    hierarchy's writeback/PutX path into the protocol). *)

val fast_hit : t -> blk:int -> write:bool -> int
(** The allocation-free first half of an access: the line's slot iff the
    access is a plain hit with sufficient permission — refreshing LRU,
    promoting into L1 and recording the serving level in {!last_l1}.
    Returns -1 — having mutated {e nothing} — when the access would miss
    or needs an S→M upgrade, so the caller can fall back to {!lookup}
    without double-counting. *)

val lookup : t -> blk:int -> int
(** The second half, after {!fast_hit} returned -1: the slot of a
    resident line — an S copy the write must upgrade — refreshed and
    promoted as {!fast_hit} would, or -1 when the block is not resident. *)

val last_l1 : t -> bool
(** Whether the last successful {!fast_hit} was served by the L1. *)

val fill :
  t -> blk:int -> Warden_proto.States.pstate -> Warden_cache.Linedata.t -> int
(** Install a copy of a granted line into L2 and L1, evicting victims as
    needed; returns its slot. The grant's bytes are copied before any
    eviction runs. *)

val evict : t -> blk:int -> bool
(** Evict a resident line as {!fill} evicts a capacity victim, through
    the [evict] callback. [false], changing nothing, if it is absent. *)

val copy :
  t ->
  evict:
    (blk:int -> Warden_proto.States.pstate -> Warden_cache.Linedata.t -> unit) ->
  t
(** An independent hierarchy with the same lines, tags and recency,
    whose victims go to [evict]. *)

val state : t -> int -> Warden_proto.States.pstate
val set_state : t -> int -> Warden_proto.States.pstate -> unit

val data : t -> int -> Warden_cache.Linedata.t
(** A view of the slot's line. *)

val load : t -> int -> off:int -> size:int -> int64
(** Read from a resident line. *)

val write : t -> int -> off:int -> size:int -> int64 -> unit
(** Store into a resident line held in E or M, marking the bytes dirty;
    an E line silently becomes M. *)

val iter_resident : t -> (int -> int -> unit) -> unit
(** Visit every block resident in the hierarchy (i.e., in L2) with its
    slot. *)

val check_inclusion : t -> (unit, string) result
(** Verify L1 ⊆ L2. *)

val save : t -> Warden_util.Bin.w -> unit
(** Snapshot both tag arrays (way positions, recency), every resident
    line's state and data, and the last-hit level. *)

val restore : t -> Warden_util.Bin.r -> unit
(** Overwrite a hierarchy of identical geometry from {!save} output.
    Raises [Warden_util.Bin.Corrupt] on a geometry mismatch. *)

val peek : t -> blk:int -> Warden_proto.Fabric.probe option
val invalidate : t -> blk:int -> Warden_proto.Fabric.probe option
val downgrade : t -> blk:int -> Warden_proto.Fabric.probe option
(** Fabric probes; see {!Warden_proto.Fabric}. [downgrade] leaves the line
    in S with its dirty mask intact — the protocol merges then clears it.
    The line of an [invalidate] probe stays readable until the next fill
    into this hierarchy. *)
