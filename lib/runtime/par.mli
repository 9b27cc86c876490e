(** The MPL-like fork-join runtime: nested parallelism over simulated
    hardware threads, with a work-stealing scheduler, the heap hierarchy,
    and automatic WARD-region marking (§4).

    Programs are ordinary OCaml functions that call {!par2}/{!parfor} and
    touch simulated memory through {!read}/{!write}/{!alloc}. Every such
    access flows through the simulated memory system; scheduler
    synchronization (join counters, steal locks) also lives in simulated
    memory, so the runtime itself produces realistic coherence traffic.

    Execution is deterministic for a fixed parameter set: steal victims
    come from seeded per-worker generators and the engine breaks timestamp
    ties FIFO. *)

type rstats = {
  mutable forks : int;
  mutable tasks : int;
  mutable steals : int;
  mutable steal_attempts : int;
  mutable allocs : int;
}

val run :
  ?params:Rtparams.t ->
  ?workers:int ->
  Warden_sim.Engine.t ->
  (unit -> 'a) ->
  'a * rstats
(** [run engine main] executes [main] as the root task on [workers]
    workers (default: every hardware thread of the engine's machine).
    Consumes the engine (one run per engine). Not reentrant. *)

(** {1 Parallelism} *)

val par2 : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Fork-join pair: evaluates both functions as child tasks (the right one
    stealable) and returns both results. Only valid inside {!run}. *)

val parfor : ?grain:int -> int -> int -> (int -> unit) -> unit
(** [parfor lo hi f] applies [f] to [lo..hi-1] by recursive halving down to
    [grain]-sized leaf tasks. *)

val parreduce :
  ?grain:int -> int -> int -> map:(int -> 'a) -> combine:('a -> 'a -> 'a) -> init:'a -> 'a
(** Tree-shaped map-reduce over an index range. *)

(** {1 Simulated memory} *)

val alloc : bytes:int -> int
(** Bump-allocate zeroed space in the current task's heap. *)

val read : int -> size:int -> int64
val write : int -> size:int -> int64 -> unit
val cas : int -> size:int -> expected:int64 -> desired:int64 -> bool
val fetch_add : int -> size:int -> int64 -> int64
val tick : int -> unit

(** {1 Introspection (used by the trace oracles)} *)

val current_heap : unit -> Heap.t option
(** Heap of the task executing on the calling worker; [None] outside a
    run. *)

val memsys : unit -> Warden_sim.Memsys.t
(** Memory system of the active run. Raises outside a run. *)

type access_kind = R | W | RMW

val set_access_hook :
  (access_kind -> addr:int -> size:int -> value:int64 -> unit) -> unit
(** Install a callback invoked on every {!read}/{!write}/{!cas}/
    {!fetch_add} made by program code (not by the scheduler's own
    synchronization). [value] is the written value for [W] accesses and
    meaningless for [R]/[RMW]. *)

val clear_access_hook : unit -> unit
