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

    The host-side knob [obs_level] is excluded from the fingerprint:
    results are bit-identical across its levels, so one snapshot serves
    any of them. Restore targets a {e freshly created} engine of matching
    geometry and protocol. Files are read and written with
    {!Warden_util.Bin.read_file} and {!Warden_util.Bin.write_file}. *)

val to_bytes : Warden_sim.Engine.t -> Bytes.t
(** Serialize at a quiescent point. Raises [Invalid_argument] if a run
    is in progress. *)

val restore : Warden_sim.Engine.t -> Bytes.t -> unit
(** Restore into a freshly created engine of identical configuration and
    protocol. Subsequent runs are bit-identical to running them on the
    snapshotted engine. Raises [Warden_util.Bin.Corrupt], leaving the
    engine as it was, on bad magic, version or checksum, a truncated
    envelope or bytes after it, any fingerprint mismatch, or a malformed
    body (a thread clock out of range included). *)

val describe : Bytes.t -> string
(** Render the envelope and stored fingerprint (validates the checksum
    first). *)
