(** The baseline directory-based MESI protocol (Nagarajan et al. [63]).

    Requests are processed atomically at the directory: each transaction
    runs to completion (probes, forwards, invalidations and all) and
    reports a total latency computed from the message legs it needed. This
    "atomic transaction" simplification preserves the event counts and
    latencies that drive the paper's evaluation while avoiding transient
    states.

    The WARDen protocol ({!Warden_core.Warden}) delegates to these entry
    points for every block outside a WARD region, so the two protocols
    charge identical costs on the common path. *)

type grant = {
  mutable pstate : States.pstate;
      (** State to install in the requestor's cache. *)
  mutable fill : Warden_cache.Linedata.t;
      (** Block data to install; {!no_fill} for upgrades, which keep the
          data already held. A view of the source line (the LLC copy or
          the transferring owner's) — consumers must copy it before
          triggering further protocol activity (DESIGN.md §10). *)
  mutable latency : int;  (** Cycles until the requestor has its answer. *)
}
(** Grants are delivered through a reusable scratch record owned by the
    protocol instance: the fields are only valid until the next request on
    the same protocol. Snapshot them if you need two grants at once. *)

val no_fill : Warden_cache.Linedata.t
(** Sentinel line marking a grant that carries no data; {!has_fill}
    compares against it physically. *)

val has_fill : grant -> bool

val fresh_grant : unit -> grant
(** A new scratch record (initially [P_S] / {!no_fill} / 0). *)

val invalidate_counted :
  Fabric.t -> core:int -> blk:int -> Fabric.probe option -> Fabric.probe option
(** Pass-through for the result of an [invalidate_priv] probe that counts
    one invalidation per cache level holding the line (the paper counts
    coherence events per cache) and records the observability event.
    Shared by every protocol that invalidates remote copies. *)

val downgrade_counted :
  Fabric.t -> core:int -> blk:int -> Fabric.probe option -> Fabric.probe option
(** {!invalidate_counted} for downgrades. *)

val handle_request :
  Fabric.t ->
  Dirstate.t ->
  grant ->
  core:int ->
  blk:int ->
  write:bool ->
  holds_s:bool ->
  grant
(** An L2 miss (or S-upgrade when [holds_s]) arriving at the directory.
    Fills and returns the scratch [grant] (all three fields are set on
    every path). Precondition: the directory entry is not [D_W] (callers
    peel that case off first) and the requestor does not already have
    sufficient permission. *)

val handle_evict :
  Fabric.t ->
  Dirstate.t ->
  core:int ->
  blk:int ->
  pstate:States.pstate ->
  data:Warden_cache.Linedata.t ->
  unit
(** A private hierarchy evicted its copy: PutM (full-line dirty writeback),
    PutE or PutS. Off the critical path — no latency is charged to the
    thread, but messages and energy are counted. Precondition: the
    directory entry is not [D_W]. *)

val flush_block : Fabric.t -> Dirstate.t -> blk:int -> unit
(** End-of-run drain used before comparing simulated memory against a
    reference: silently pull every private copy of [blk] into the LLC and
    invalidate the entry. Not counted as traffic. Handles MESI states only;
    precondition: not [D_W]. *)
