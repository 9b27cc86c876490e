(** Commit-order access streams: record once, replay many (DESIGN.md §15).

    Recording installs the {!Warden_sim.Memsys} trace sink for the
    duration of a run, capturing every committed memory-system transition
    — loads, stores (with values), RMWs (with their committed new value),
    region add/remove, flushes and host pokes — in commit order, 33 bytes
    per event. Replaying feeds the stream back through the memory-system
    entry points against a {e fresh} same-geometry memory system, with no
    program model: on the same protocol the final memory-system
    statistics are bit-identical to the recording run's; on the other
    protocol the replay is a trace-driven A/B comparison.

    Streams are protocol-dependent (the commit order embeds the recorded
    protocol's latencies), so cross-protocol replay answers "what would
    this access stream cost under the other protocol", not "what would
    this program do" — the paper's trace-driven methodology. *)

type t

val record : Warden_sim.Memsys.t -> (unit -> 'a) -> 'a * t
(** [record ms f] runs [f] with the commit-order sink installed on [ms]
    (removed afterwards, also on exceptions). Install before poking
    inputs so the replay reproduces them. Not composable with another
    simultaneous sink. *)

val replay : t -> Warden_sim.Memsys.t -> int
(** Replay into a freshly created memory system of identical geometry
    (any protocol); returns the number of events replayed. Raises
    [Warden_util.Bin.Corrupt] on a geometry mismatch or a corrupt
    stream. *)

val events : t -> int

val proto : t -> string
(** Protocol name the stream was recorded under. *)

val to_bytes : t -> Bytes.t
(** The [WOBS] v2 envelope: magic, version, geometry, protocol, event
    count, body, and a {!Warden_util.Bin.word_checksum} of everything
    before it. *)

val of_bytes : Bytes.t -> t
(** Validate a {!to_bytes} envelope in place and return a stream that
    reads its events straight out of the argument: nothing is copied, so
    the argument must not be mutated afterwards. Raises
    [Warden_util.Bin.Corrupt], naming the fault, on a bad magic, another
    version, a truncated or over-long input, a body length other than
    events x 33, or a checksum mismatch (any damaged header or body
    byte). *)

val save_file : t -> string -> unit

val load_file : string -> t
(** Read a file and {!of_bytes} it. *)

val stats_text : Warden_sim.Memsys.t -> string
(** Canonical dump of the memory-system statistics a replay reproduces
    (engine-owned values excluded), one [key value] per line — byte-equal
    between a recording run and its same-protocol replay. *)
