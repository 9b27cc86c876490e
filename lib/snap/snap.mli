(** Snapshot/restore of the full simulator state (DESIGN.md §15).

    A snapshot is the engine's flat serialized state
    ({!Warden_sim.Engine.snapshot}) wrapped in a versioned envelope: a
    magic tag, a format version, a configuration fingerprint (every
    config value the simulated results depend on, stored as actual
    values so mismatches name the offending field) and a checksum over
    the body.

    Snapshots are only legal at quiescent points — between
    {!Warden_sim.Engine.run} phases — because effects-based
    continuations cannot serialize; that boundary is also the only time
    the simulated state is entirely flat structures.

    The host-side knobs [sched_quantum] and [obs_level] are excluded from
    the fingerprint: results are bit-identical across them, so one
    snapshot serves any of those settings. Restore targets a {e freshly
    created} engine of matching geometry and protocol. *)

val to_bytes : Warden_sim.Engine.t -> Bytes.t
(** Serialize at a quiescent point. Raises [Invalid_argument] if a run
    is in progress. *)

val restore : Warden_sim.Engine.t -> Bytes.t -> unit
(** Restore into a freshly created engine of identical configuration and
    protocol. Subsequent runs are bit-identical to running them on the
    snapshotted engine. Raises [Warden_util.Bin.Corrupt], leaving the
    engine as it was, on bad magic, version or checksum, any fingerprint
    mismatch, or a malformed body. *)

val describe : Bytes.t -> string
(** Render the envelope and stored fingerprint (validates the checksum
    first). *)

val save_file : Warden_sim.Engine.t -> string -> unit
val load_file : Warden_sim.Engine.t -> string -> unit

val read_file : string -> Bytes.t
(** Raw snapshot bytes from disk (for {!describe} or {!restore}). *)
