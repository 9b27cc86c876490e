(** The WARDen coherence protocol (§5): MESI plus the WARD state.

    Blocks whose addresses fall inside an active WARD region are handled in
    the W state: the directory satisfies reads and writes with
    exclusive-like copies served from the shared cache, never downgrading
    or invalidating other cores' copies (Fig. 5). Every core granted a copy
    is remembered in the entry's sharer set. Removing a region reconciles
    its blocks (§5.2):

    - {e no sharing} — a sole holder whose block never saw a concurrent
      copy is converted in place to E (clean) or M (dirty);
    - {e false/true sharing} — every holder is flushed and its dirty
      {e sectors} (byte-granular masks, §6.1) are merged into the LLC in
      ascending core order; the directory entry returns to I. False and
      true sharing use the same mechanism, as in the paper.

    Blocks outside WARD regions follow the baseline {!Warden_proto.Mesi}
    transitions exactly, so legacy (non-region-marking) software runs
    unchanged.

    Region operations cost what they reconcile, not the range they span:
    removal visits only the range's blocks in W, through an index of W
    grants derived from the directory (never saved; rebuilt on restore),
    and an add whose range starts above every block the directory has
    entered probes nothing. *)

open Warden_proto

module P : sig
  include Protocol.S

  val regions : t -> Regions.t
  (** The live region table (exposed for tests and inspection). *)
end

val protocol : Fabric.t -> Protocol.t
(** Package WARDen as a first-class protocol. The region capacity comes
    from the fabric's machine configuration. *)
