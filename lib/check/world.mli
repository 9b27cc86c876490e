(** The model checker's small world: one production memory system
    ({!Warden_sim.Memsys}) on the given machine's topology, its caches
    shrunk to one set of [blks] ways so that no line is ever a capacity
    victim. Loads and stores are {!Warden_sim.Memsys.access_load} and
    [access_store] by the core's thread, evictions take the private
    cache's victim path ({!Warden_sim.Memsys.evict}), and region
    instructions and fences use the memory system's entry points. The
    world reads the caches back through the protocol's fabric
    ([peek_priv], [iter_priv]) and {!Warden_sim.Llc.peek}.

    Stores are given deterministic, interleaving-independent values:
    core [c]'s [k]-th store to block [b] always writes [encode c b k] into
    the core's private 8-byte slot of the block (slot [c] at byte offset
    [8c]). Slots make every write single-writer at byte granularity — the
    discipline WARD requires of software — so a sequential oracle (the
    per-slot store counts) pins the expected value of every byte of the
    world at every step, for both protocols, through reconciliation merges.

    {!check} audits, after every operation:
    - directory/private-cache agreement ({!Warden_proto.Protocol.S.observe}
      vs the actual copies), including sharer sets, owner, and the
      [w_multi] flag's scope;
    - the memory system's own audit ({!Warden_sim.Memsys.check_invariants}):
      SWMR among private copies, exempting blocks inside an active WARD
      region (the documented W-block exemption), S-copy cleanliness and
      L1 inclusion;
    - the data-value invariant: outside WARD regions every private copy
      and (for I/S blocks) the effective memory must equal the oracle;
      inside a WARD region a core must still read its own writes, and any
      other slot it observes must be {e some} historical oracle value
      (no out-of-thin-air data);
    - that a retired region leaves no W state behind (region add/remove
      round-trips restore a reconciled, MESI-consistent state).

    Protocols whose {!Warden_proto.Protocol.S.kind} is [`Self] (SI/SD) are
    driven with the fence operations {!Op.Acquire}/{!Op.Release} appended
    to the alphabet and an acquire/release-aware oracle in place of the
    directory-agreement and SWMR invariants: every copy still reads its
    own writes and shows only historical values of other slots, the LLC
    slot of any core without an unflushed copy equals the oracle, a
    release fence leaves the core clean and fully published, and an
    acquire fence leaves it holding nothing. *)

open Warden_machine
open Warden_proto

type cfg = {
  cores : int;  (** 1..8 (each core owns one 8-byte slot of a 64 B block) *)
  blks : int;  (** blocks 0..blks-1 are loaded/stored and checked *)
  regions : int;
      (** size of the predefined region menu (see {!Op}); each region is
          live at most once at a time *)
  store_cap : int;
      (** max stores per (core, block); bounds the canonical state space.
          [<= 0] means unlimited (fuzzing). *)
  region_base : int;
      (** block offset of the region menu. [0] puts regions over the
          checked blocks; the equivalence mode sets [blks] so that region
          instructions execute but never cover an accessed block. *)
  machine : Config.t;
  mk : Fabric.t -> Protocol.t;  (** the protocol under test *)
}

val shrink : Config.t -> blks:int -> Config.t
(** The machine with every cache level shrunk to one set of [blks] ways:
    the L1, the L2 and each socket's LLC slice. The topology — sockets,
    cores, hops and latencies — is the machine's own. *)

type t

type result = { latency : int; value : int64 option; accepted : bool }
(** Outcome of one operation: the grant/reconcile latency, the 64-bit
    value a load observed (or a store wrote), and whether a region add
    was accepted by the CAM. *)

val create : cfg -> t
val proto : t -> Protocol.t

val copy : t -> t
(** Fork the world: the memory system ({!Warden_sim.Memsys.copy}) and
    the oracle counts. The explorer forks a world per successor instead
    of replaying operation prefixes. *)

val enabled : t -> Op.t list
(** The operations worth exploring from the current state: loads that
    miss, stores under the cap, evictions of held lines, region ops within
    their activation bounds. (Pure cache hits and no-op evictions are
    excluded — they cannot change the canonical state.) *)

val apply : t -> Op.t -> result
(** Execute one operation against the memory system, updating the
    world. *)

val check : t -> string list
(** Audit every invariant; [[]] means the state is clean. *)

val key : t -> string
(** Canonical fingerprint of the complete state (directory views,
    wardness, private copies with data and dirty masks, LLC lines, store
    counts, live regions) for BFS memoization. Two states with equal keys
    are indistinguishable to any future operation sequence: no line is
    ever a capacity victim, so cache recency has no future effect. *)

val compare : data_only:bool -> t -> t -> string list
(** Differences that equivalent protocols must not show: per-core
    residency, states, bytes and dirty masks, the effective memory image,
    and directory views and wardness. [data_only] skips the last two and
    compares only the M-vs-clean state class — snooping MSI grants S
    where directory MESI grants E, and both are correct. *)

val dump : t -> string
(** Pretty-print the full state: protocol dump (directory + region CAM),
    per-core cache contents, LLC lines, and the oracle's expected
    values. *)
