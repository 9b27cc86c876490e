(** First-class packaging of a coherence protocol.

    The simulator's memory system drives whichever protocol it is given
    through this interface; MESI ({!Mesi_protocol}) and WARDen
    ({!Warden_core.Warden}) both implement it. The region operations model
    the paper's "Add/Remove Region" instructions (§6.1): plain MESI
    implements them as cheap no-ops so that the same runtime binary runs on
    both protocols, exactly as WARDen supports unmodified legacy code. *)

type block_view = {
  bv_state : States.dstate;  (** directory state (I/S/E/M/W) *)
  bv_owner : int;  (** owning core for E/M, [-1] otherwise *)
  bv_sharers : int list;  (** sharer set, ascending core id *)
  bv_wmulti : bool;  (** block ever held by >1 core within a W epoch *)
}
(** A structured snapshot of one block's directory entry, for invariant
    checkers and debuggers. Implementations must report their *actual*
    bookkeeping, not a reconstruction — the model checker cross-validates
    these views against the private caches. *)

val invalid_view : block_view
(** The view of an untracked (invalid) block. *)

val view_of_dir : Dirstate.t -> blk:int -> block_view
(** Snapshot a directory entry (helper for implementations that keep their
    state in a {!Dirstate.t}, as MESI and WARDen both do). *)

val pp_block_view : Format.formatter -> block_view -> unit

val dump_dir : Dirstate.t -> string
(** Render every non-invalid entry, sorted by block, one per line. *)

module type S = sig
  type t

  val name : string

  val kind : [ `Directory | `Snoop | `Self ]
  (** Coherence topology. [`Directory] protocols answer requests from
      per-block bookkeeping; [`Snoop] protocols broadcast on a shared bus
      and discover copies by probing every cache; [`Self] protocols never
      initiate remote invalidations — cores self-invalidate at acquires
      and self-downgrade at releases. The simulator keys behavior off
      this: only [`Self] protocols receive {!acquire}/{!release} from the
      runtime's sync points, and their atomics are pinned to the coherent
      scheduled path. *)

  val create : Fabric.t -> t

  val fabric : t -> Fabric.t

  val handle_request :
    t -> core:int -> blk:int -> write:bool -> holds_s:bool -> Mesi.grant

  val handle_evict :
    t ->
    core:int ->
    blk:int ->
    pstate:States.pstate ->
    data:Warden_cache.Linedata.t ->
    unit

  val region_add : t -> lo:int -> hi:int -> bool
  (** Declare [\[lo, hi)] a WARD region. Returns whether the hardware
      accepted it (a full region CAM refuses). *)

  val is_ward : t -> blk:int -> bool
  (** Is this block currently inside an active WARD region? Always false
      for the MESI baseline. Used by invariant checkers, which must exempt
      W blocks from the single-writer rule. *)

  val region_remove : t -> lo:int -> hi:int -> int
  (** Remove the region and reconcile its blocks; returns the cycles the
      announcing thread is charged. *)

  val acquire : t -> core:int -> int
  (** Acquire fence on [core] (fork-join runtime sync point): a [`Self]
      protocol flushes the core's dirty copies to the LLC and invalidates
      everything the core holds, so later reads observe other cores'
      released writes. Returns the cycles charged; free no-op (0) for
      eagerly-coherent protocols. *)

  val release : t -> core:int -> int
  (** Release fence on [core]: a [`Self] protocol self-downgrades the
      core's dirty copies into the LLC so a subsequent acquirer can read
      them. Returns the cycles charged; free no-op (0) otherwise. *)

  val flush_all : t -> unit
  (** Drain every cached copy to memory (end-of-run, uncounted). *)

  val observe : t -> blk:int -> block_view
  (** Snapshot the directory's bookkeeping for one block. *)

  val dump : t -> string
  (** Human-readable dump of all protocol state (directory entries plus
      any protocol-specific tables such as the WARD region CAM); used by
      the model checker's counterexample printer. *)

  val copy : t -> fabric:Fabric.t -> t
  (** Fork the protocol state, rebinding it to [fabric]. The model checker
      forks whole memory systems when exploring alternative interleavings;
      since a protocol reaches its caches only through fabric callbacks,
      the copy must be given the fabric of the forked world. *)

  val save_state : t -> Warden_util.Bin.w -> unit
  (** Serialize the protocol's own state (directory entries plus any
      protocol tables such as the WARD region CAM) for snapshots
      (DESIGN.md §15). Caches, stats and the store are serialized by
      their owners, not here. *)

  val restore_state : t -> Warden_util.Bin.r -> unit
  (** Overwrite the protocol state of a same-geometry instance from
      {!save_state} output. Raises [Warden_util.Bin.Corrupt] on a
      mismatch. *)
end

type t = Packed : (module S with type t = 'a) * 'a -> t

val name : t -> string
val kind : t -> [ `Directory | `Snoop | `Self ]
val fabric : t -> Fabric.t
val stats : t -> Pstats.t

val handle_request :
  t -> core:int -> blk:int -> write:bool -> holds_s:bool -> Mesi.grant

val handle_evict :
  t -> core:int -> blk:int -> pstate:States.pstate -> data:Warden_cache.Linedata.t -> unit

val region_add : t -> lo:int -> hi:int -> bool
val region_remove : t -> lo:int -> hi:int -> int
val is_ward : t -> blk:int -> bool
val acquire : t -> core:int -> int
val release : t -> core:int -> int
val flush_all : t -> unit
val observe : t -> blk:int -> block_view
val dump : t -> string
val copy : t -> fabric:Fabric.t -> t
val save_state : t -> Warden_util.Bin.w -> unit
val restore_state : t -> Warden_util.Bin.r -> unit

val mesi : Fabric.t -> t
(** Package the baseline MESI protocol. *)
