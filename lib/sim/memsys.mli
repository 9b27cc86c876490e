(** The complete simulated memory system: per-core private hierarchies, the
    socket-interleaved shared LLC, the directory-based protocol (MESI or
    WARDen) and the backing store, with unified latency, event and energy
    accounting.

    All simulated data lives in the cache lines and the store — a load's
    value really comes from the copy coherence delivered, so protocol bugs
    corrupt program output rather than hiding. *)

type t

val create :
  Warden_machine.Config.t ->
  proto:[ `Mesi | `Warden | `Msi_bus | `Sisd ] ->
  t
(** Raises [Invalid_argument] unless [sim_domains = 1]: one simulation
    runs on one host domain, and host parallelism comes from running
    independent simulations side by side ([--jobs]). *)

val create_with :
  Warden_machine.Config.t ->
  mk:(Warden_proto.Fabric.t -> Warden_proto.Protocol.t) ->
  t
(** {!create} with any protocol, built over the memory system's fabric
    (the model checker passes deliberately broken ones). *)

val copy : t -> t
(** An independent memory system in the same state — caches, store,
    protocol ({!Warden_proto.Protocol.copy}), statistics and energy —
    sharing the configuration and the event recorder, with no trace
    sink. The model checker forks one per explored successor. *)

val config : t -> Warden_machine.Config.t
val protocol : t -> Warden_proto.Protocol.t
val pstats : t -> Warden_proto.Pstats.t

val llc : t -> Llc.t
(** The shared LLC — the scale bench reads {!Llc.chunks_stats} off it to
    report how much of the lazily-chunked slice storage materialized. *)

val sstats : t -> Sstats.t
(** Access statistics, updated in place as the run proceeds. *)

val energy : t -> Warden_machine.Energy.t

val obs : t -> Warden_obs.Obs.t
(** The run's event recorder (DESIGN.md §12). The same instance is exposed
    to the protocols through the fabric; at [Obs_off] it records nothing. *)

(** {2 Accesses}

    Each access is one transition: a hit prefix, which commits a
    permission-sufficient private-cache hit in place, followed by the
    miss path for an upgrade or a miss. The engine and trace replay both
    call {!access_load}, {!access_store} and {!access_rmw}; the other
    entry points are thin wrappers over them.
    A loaded value is written, little-endian, into the first 8 bytes of
    the caller's buffer, so a hit allocates nothing. *)

val access_load :
  t -> thread:int -> Warden_mem.Addr.t -> size:int -> Bytes.t -> int
(** [access_load t ~thread addr ~size into] performs the load, writes its
    value into [into] and returns its latency (cycles). *)

val access_store :
  t -> thread:int -> Warden_mem.Addr.t -> size:int -> int64 -> int
(** Performs the store and returns the latency of its memory-system
    transaction (the engine hides it behind the store buffer). *)

val access_rmw :
  t ->
  thread:int ->
  Warden_mem.Addr.t ->
  size:int ->
  (int64 -> int64) ->
  Bytes.t ->
  int
(** Atomic read-modify-write: applies the function to the current value,
    stores the result, writes the {e old} value into the buffer and
    returns the latency. Under a [`Self] protocol (see
    {!Warden_proto.Protocol.S.kind}) the RMW is performed coherently at
    the shared level: the core's copy is dropped (dirty sectors flushed),
    the current bytes are re-fetched, and the result is written straight
    through, leaving a clean S copy — so atomics synchronize even though
    plain accesses may be stale. *)

val load : t -> thread:int -> Warden_mem.Addr.t -> size:int -> int64 * int
(** {!access_load} returning the value and the latency. *)

val store : t -> thread:int -> Warden_mem.Addr.t -> size:int -> int64 -> int
(** {!access_store}. *)

val rmw :
  t ->
  thread:int ->
  Warden_mem.Addr.t ->
  size:int ->
  (int64 -> int64) ->
  int64 * int
(** {!access_rmw} returning the old value and the latency. *)

val try_fast_load :
  t -> thread:int -> Warden_mem.Addr.t -> size:int -> int
(** The hit prefix of {!access_load} alone: the latency (>= 0) iff the
    access is a private-cache hit needing no protocol transition, with
    accounting identical to {!load}; [-1] — having changed nothing —
    otherwise, so the caller can fall back to {!load} without
    double-counting. The value is not returned. Allocation-free. *)

val try_fast_store :
  t -> thread:int -> Warden_mem.Addr.t -> size:int -> int64 -> int
(** The hit prefix of {!access_store} (needs E/M permission); same
    contract as {!try_fast_load}. *)

val try_fast_rmw :
  t ->
  thread:int ->
  Warden_mem.Addr.t ->
  size:int ->
  (int64 -> int64) ->
  int
(** The hit prefix of {!access_rmw}; same contract as {!try_fast_load}.
    Always [-1] under a [`Self] protocol. *)

val acquire : t -> thread:int -> int
(** Acquire fence at a runtime sync point: the [`Self] protocol flushes
    and self-invalidates everything [thread]'s core holds. Returns the
    cycles charged (0 for eagerly-coherent protocols, which do nothing). *)

val release : t -> thread:int -> int
(** Release fence: the [`Self] protocol self-downgrades the core's dirty
    copies into the LLC. Returns the cycles charged. *)

val region_add : t -> thread:int -> lo:int -> hi:int -> bool
(** Activate a WARD region, recording the activation against [thread]'s
    core (observability only — the protocol sees just the range). *)

val region_remove : t -> thread:int -> lo:int -> hi:int -> int

val evict : t -> thread:int -> blk:int -> bool
(** {!Privcache.evict} on [thread]'s core: the protocol's writeback path
    takes the line. [false] if the core does not hold it. *)

val alloc : t -> bytes:int -> align:int -> Warden_mem.Addr.t
(** Fresh simulated memory from a global bump allocator. Addresses are
    never reused; [align] must be a power of two. *)

val flush_all : t -> unit
(** Drain every cache to the store so that {!peek} observes the final
    coherent memory image (used by tests and verifiers at end of run). *)

val peek : t -> Warden_mem.Addr.t -> size:int -> int64
(** Read the backing store directly (bypassing caches; see {!flush_all}). *)

val poke : t -> Warden_mem.Addr.t -> size:int -> int64 -> unit
(** Write the backing store directly. Only meaningful before any cache has
    a copy (pre-run initialization of inputs). *)

val footprint_bytes : t -> int

(** {2 Commit-order trace sink (DESIGN.md §15)}

    A flat callback invoked at the instant each access commits its
    memory-system transition — so the recorded stream is in commit
    order, and feeding it
    back through the access transitions replays the exact transition
    sequence with no program model.
    Arguments: [kind thread addr size value]; for {!k_rmw} the value is
    the committed {e new} value (replay with [fun _ -> v]), for region
    events [addr]/[size] carry [lo]/[hi]. *)

val k_load : int
val k_store : int
val k_rmw : int
val k_region_add : int
val k_region_remove : int
val k_flush : int
val k_poke : int

val k_acquire : int
(** Runtime acquire/release fences ([addr] and [size] are 0). Recorded so
    a stream captured under a [`Self] protocol replays its fences; on
    other protocols the fences are free no-ops both live and replayed. *)

val k_release : int

val set_trace_sink :
  t -> (int -> int -> int -> int -> int64 -> unit) option -> unit
(** Install (or with [None] remove) the commit-order sink. The off path
    costs one predicted branch per access. *)

(** {2 Snapshots (DESIGN.md §15)} *)

val save_state : t -> Warden_util.Bin.w -> unit
(** Serialize the complete simulated memory-system state — written
    memory lines, LLC slices, private hierarchies (one word for a core
    whose hierarchy was never allocated), protocol state (directory +
    region CAM), stats, energy, and the bump allocator. Only meaningful
    at quiescent points (between {!Engine.run}s). *)

val restore_state : t -> Warden_util.Bin.r -> unit
(** Overwrite a same-geometry, same-protocol memory system from
    {!save_state} output. The whole image is first restored into a copy,
    so a malformed one raises [Warden_util.Bin.Corrupt], naming the
    fault, and leaves [t] as it was. The target should be freshly
    created. *)

val check_invariants : t -> (unit, string) result
(** Audit the private caches against the coherence rules:

    - SWMR: a block held E/M by one core is held by nobody else — except
      blocks inside an active WARD region, where multiple exclusive-like
      copies are WARDen's design, and except under [`Self] protocols,
      where concurrent writers of disjoint sectors are legal;
    - every S copy is clean with respect to the LLC;
    - inclusion: every L1-resident block is L2-resident.

    O(total cache capacity); meant for tests and debugging, not for the
    simulation fast path. *)
