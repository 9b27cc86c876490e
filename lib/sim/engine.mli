(** The discrete-event simulation engine.

    Each hardware thread is an OCaml computation that calls {!Ops}; the
    engine interleaves all threads' memory operations in global cycle
    order (FIFO among equal timestamps, so runs are deterministic),
    suspending a thread with one effect at every access, and charges
    latencies from the memory system.

    Timing model:
    - [tick n] retires [n] single-cycle instructions;
    - loads and RMWs block the thread for their full memory latency
      (RMWs additionally drain the store buffer, like a TSO fence);
    - stores retire in one cycle through a bounded store buffer and only
      stall when it is full — the asymmetry the paper's Figure 10 analysis
      relies on.

    The run queue is a binary heap of thread ids keyed by (cycle,
    enqueue order). A thread has at most one queued event and only the
    running thread re-enqueues itself, so the running thread stays at the
    heap's root for its whole turn: a context switch is one sift-down.
    There is no run loop: the effect handler ends each turn by resuming
    the next root, a call in tail position, so a run of any length takes
    constant host stack (DESIGN.md §8).

    Every access suspends the thread: it writes the operation into the
    thread's state, performs one effect, and the engine performs it when
    the thread reaches the heap's root, as one memory-system transition
    ({!Memsys.access_load} and its siblings: a hit prefix, then the miss
    path); see DESIGN.md §8.

    One engine runs on one host domain. Host parallelism comes from
    running independent engines side by side (the harness's [--jobs]). *)

type t

type parked
(** A fiber suspended by {!Ops.fork}, waiting for an {!Ops.hand_off}. *)

val create :
  Warden_machine.Config.t ->
  proto:[ `Mesi | `Warden | `Msi_bus | `Sisd ] ->
  t

val memsys : t -> Memsys.t
val config : t -> Warden_machine.Config.t

val run : t -> (unit -> unit) array -> int
(** [run t bodies] runs [bodies.(tid)] on hardware thread [tid] (at most
    {!Warden_machine.Config.num_threads}) until every thread finishes.
    Returns the makespan in cycles, also recorded in the stats and charged
    to the energy model.

    May be called repeatedly: each call is a phase continuing the same
    simulated timeline (thread clocks, stats and energy carry over; each
    phase's energy charge is its cycle delta). The boundary between
    phases is the engine's only quiescent point — run queue empty, store
    buffers drained, no live continuation — which is exactly where
    {!snapshot} and {!restore} are legal. Raises [Failure] if a thread's
    clock reaches 2{^42} cycles. *)

val snapshot : t -> Warden_util.Bin.w -> unit
(** Serialize the complete simulator state — scheduler clocks plus the
    whole memory system ({!Memsys.save_state}) — at a quiescent point.
    Raises [Invalid_argument] if called while a run is in progress
    (effects-based continuations cannot serialize). Raw payload; the
    [warden.snap] library adds the versioned header, config fingerprint
    and checksum (DESIGN.md §15). *)

val restore : t -> Warden_util.Bin.r -> unit
(** Overwrite a freshly created engine of identical geometry and protocol
    from {!snapshot} output. Subsequent {!run} phases are bit-identical
    to running them on the snapshotted engine. Raises
    [Warden_util.Bin.Corrupt] on a mismatch or malformed input, leaving
    the engine as it was, and [Invalid_argument] if called while a run
    is in progress. *)

(** Accesses on an engine the caller already holds, from code running
    inside that engine's {!run} (the [Par] runtime keeps its engine in
    its own domain-local state, so a program access costs one lookup).
    The semantics are those of the same-named {!Ops}. *)
module On : sig
  val load : t -> Warden_mem.Addr.t -> size:int -> int64
  val store : t -> Warden_mem.Addr.t -> size:int -> int64 -> unit
  val rmw : t -> Warden_mem.Addr.t -> size:int -> (int64 -> int64) -> int64

  val cas :
    t -> Warden_mem.Addr.t -> size:int -> expected:int64 -> desired:int64 -> bool

  val fetch_add : t -> Warden_mem.Addr.t -> size:int -> int64 -> int64
end

(** Ambient operations for code running inside {!run}. Calling them
    outside a run raises [Effect.Unhandled]. *)
module Ops : sig
  val load : Warden_mem.Addr.t -> size:int -> int64
  val store : Warden_mem.Addr.t -> size:int -> int64 -> unit
  val rmw : Warden_mem.Addr.t -> size:int -> (int64 -> int64) -> int64
  (** Returns the pre-update value. *)

  val cas : Warden_mem.Addr.t -> size:int -> expected:int64 -> desired:int64 -> bool
  val fetch_add : Warden_mem.Addr.t -> size:int -> int64 -> int64

  val tick : int -> unit
  (** Retire [n] ordinary instructions ([n] cycles of compute). *)

  val stall : int -> unit
  (** Advance time without retiring instructions (scheduler overheads). *)

  val now : unit -> int
  val tid : unit -> int

  val region_add : lo:int -> hi:int -> bool
  val region_remove : lo:int -> hi:int -> unit
  (** The paper's Add/Remove-Region instructions; each retires as one
      instruction, and removal charges the reconciliation latency. *)

  val acquire : unit -> unit
  (** Acquire fence at a runtime sync point (start of stolen/forked work,
      lock acquisition). Under a [`Self] protocol this drains the store
      buffer and self-invalidates the core's cache ({!Memsys.acquire});
      under eagerly-coherent protocols it is a literal no-op — no effect
      performed — so schedules and stats are untouched. *)

  val release : unit -> unit
  (** Release fence (publishing forked work, lock release, task
      completion): the [`Self] dual of {!acquire}, self-downgrading the
      core's dirty lines. No-op under eagerly-coherent protocols. *)

  val yield : unit -> unit
  (** Let other threads scheduled at the same cycle run first. *)

  val fork : park:(parked -> unit) -> (unit -> unit) -> unit
  (** [fork ~park body] parks the running fiber, passes it to [park], and
      runs [body] as a new fiber on the same thread at the same cycle.
      [fork] returns when a {!hand_off} of the parked fiber resumes it,
      perhaps on another thread. Takes no time and does not requeue the
      thread. When [body] returns, the thread finishes, unless it handed
      off. *)

  val hand_off : parked -> unit
  (** [hand_off p]: when the running fiber's body returns, continue [p]
      on this thread in the same turn, instead of finishing the thread.
      Takes no time and does not requeue the thread. It must be the
      body's last operation: a later access would replace it. *)
end
