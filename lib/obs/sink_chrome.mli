(** Chrome [trace_event] JSON sink.

    Collects full-level event records into one growable flat array and writes
    them as a [traceEvents] document loadable in [about://tracing] /
    Perfetto. One simulated cycle maps to one trace microsecond.

    Records are sorted by full content — (cycle, code, core, block, arg)
    — before writing, and the emission sequence number is used only as a
    final tiebreaker and never printed. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds retained records (default [1 lsl 20]); records past
    it are counted in {!dropped} instead of retained. *)

val add :
  t -> code:int -> cycle:int -> core:int -> blk:int -> arg:int -> seq:int ->
  unit

val length : t -> int
(** Retained records. *)

val dropped : t -> int
(** Records discarded because the sink was full. *)

val write : Buffer.t -> runs:(int * string * t) list -> unit
(** [write buf ~runs] appends a complete well-formed trace document for
    [runs = [(pid, process_name, sink); ...]] — one Chrome "process" per
    simulated run, so a MESI and a WARDen run of the same benchmark can
    sit side by side in one trace. *)
