(** Model checking and fuzzing for coherence protocols.

    Two engines drive a {!World} (or a lockstep pair of worlds) over the
    {!Op} alphabet:

    - {!explore} enumerates {e every} interleaving of requests, evictions
      and region operations breadth-first up to a depth bound, with
      canonical-state memoization ({!World.key}) so that converging
      interleavings are explored once. Each frontier node carries a forked
      world ({!World.copy}), so a successor costs one fork plus one
      operation — no prefix replay. With a store cap the reachable state
      space is finite; when it closes before the depth bound the report
      says so ([complete = true]) — the small model has been verified
      exhaustively.
    - {!fuzz} takes a long deterministic random walk
      ({!Warden_util.Splitmix}) with unbounded stores, reaching depths BFS
      cannot.

    Both check every invariant after every operation and, on a violation,
    shrink the failing operation sequence to a locally-minimal one
    (prefix truncation, then delta-debugging-style chunk removal to a
    fixpoint) and render a step-by-step trace ending in the full world
    state. *)

open Warden_machine
open Warden_proto

type cfg = {
  name : string;
  world : World.cfg;
      (** The world, or the lockstep pair's primary (WARDen) world. *)
  lockstep : (Fabric.t -> Protocol.t) option;
      (** When set, a second world runs the same operations and the two are
          compared per-op (latency and observed value of loads/stores) and
          per-state ({!World.compare}). Region operations are shifted past
          the accessed blocks so neither protocol puts a checked block
          under WARD — this is the MESI ≡ WARDen equivalence mode. *)
  data_only : bool;
      (** Relax a lockstep pair to data equivalence: skip the latency
          comparison and compare data only ({!World.compare}: residency,
          state class, bytes, memory image) instead of exact state
          equality. The snooping-MSI ≡ MESI mode needs this — bus
          arbitration costs differently than directory hops, and MSI
          grants S where MESI grants E. *)
}

type preset =
  ?cores:int ->
  ?blks:int ->
  ?regions:int ->
  ?store_cap:int ->
  ?machine:Config.t ->
  unit ->
  cfg
(** A configuration with optional sizes. *)

val mesi : preset
(** The MESI baseline alone. Defaults: 3 cores, 2 blocks, 2 regions,
    store cap 1, dual-socket machine. Pass [machine] to close the state
    space on another topology — the scale-smoke model runs the checker
    cores spread across a many-socket machine so the directory's
    per-socket sharer words (DESIGN.md §14) are the ones explored. *)

val warden : preset
(** WARDen alone, regions over the checked blocks (W states exercised). *)

val msi_bus : preset
(** The snooping shared-bus MSI protocol alone (region instructions retire
    as no-ops, so the explored alphabet matches {!mesi}'s). *)

val sisd : preset
(** SI/SD alone. The world appends {!Op.Acquire}/{!Op.Release} to the
    alphabet and swaps the SWMR/directory invariants for the
    acquire/release-aware oracle (see {!World}). *)

val equivalence : preset
(** MESI and WARDen in lockstep on region-free blocks: both must produce
    identical latencies, values, and cache/directory states. *)

val msi_lockstep : preset
(** Snooping MSI and directory MESI in lockstep, [data_only]: every
    interleaving must leave both with the same copies, bytes, dirty masks
    and effective memory — the flush-on-snoop discipline keeping the MSI
    LLC exactly where MESI's directory puts it. *)

val of_protocol : name:string -> mk:(Fabric.t -> Protocol.t) -> preset
(** A config for an arbitrary protocol constructor — used by the mutation
    tests to check deliberately-broken implementations. *)

type counterexample = {
  ops : Op.t list;  (** shrunk to a locally-minimal failing sequence *)
  violations : string list;  (** invariant failures at the final op *)
  trace : string;  (** step-by-step rendering ending in a full dump *)
}

type outcome =
  | Pass of { states : int; transitions : int; complete : bool }
      (** [states] distinct canonical states, [transitions] edges checked.
          [complete] means the state space closed before the depth bound:
          the whole reachable space was covered. (Always false for
          {!fuzz}, which samples rather than enumerates.) *)
  | Fail of counterexample

val explore : cfg -> depth:int -> outcome
(** Exhaustive exploration of every interleaving up to [depth]
    operations. *)

val fuzz : cfg -> steps:int -> seed:int64 -> outcome
(** One deterministic random walk of [steps] operations, with stores
    unbounded (the config's store cap is ignored). *)

val pp_outcome : Format.formatter -> outcome -> unit
