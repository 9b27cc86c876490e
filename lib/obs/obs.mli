(** Observability facade: the one object the simulator layers talk to.

    An [Obs.t] owns the {!Hist}, {!Sink_heatmap} and {!Sink_chrome}
    sinks and the current simulated cycle. Events arrive in the engine's global simulated order.

    Recording never feeds back: no call here mutates simulated state, so
    cycles, statistics and energy are bit-identical across levels. At
    [Obs_off] every entry point is one load + one branch. *)

type t

val create : Warden_machine.Config.t -> t
(** Leveled from the config's [obs_level]. Every sink allocates its
    storage on first use, so an [Obs_off] recorder is a ~1 KB stub. *)

val enabled : t -> bool
(** Counters level or above. *)

val full : t -> bool
(** Chrome-trace recording active. *)

val level : t -> Warden_machine.Config.obs_level

val set_now : t -> int -> unit
(** Advance the recorder's view of simulated time. The engine calls this
    when it resumes a thread at an event's timestamp; only trace records
    consume it, so paths that record none (plain hits) may skip it. *)

val access : t -> cls:int -> core:int -> blk:int -> lat:int -> unit
(** Record one memory access of class [cls] ({!Events.l1_hit} ..
    {!Events.upgrade}) with its total latency. *)

val event : t -> code:int -> core:int -> blk:int -> arg:int -> unit
(** Record one coherence event ({!Events.invalidation} .. {!Events.recon},
    except the region pair — see {!region}). *)

val region : t -> core:int -> lo:int -> hi:int -> exit:bool -> flushed:int -> unit
(** Record a WARD region activation or deactivation over byte range
    [\[lo, hi)]; [flushed] is the reconciliation flush count (exit only). *)

(** {2 Reading the sinks} *)

val count : t -> int -> int
(** Occurrences of an event code. *)

val sum : t -> int -> int
(** Arg-weighted total of an event code: total latency cycles for access
    classes, total cache levels for invalidations / downgrades — the
    quantity the protocol statistics banks accumulate, so e.g.
    [sum obs Events.invalidation = Pstats.invalidations] exactly. *)

val hist : t -> Hist.t
(** Per-event-class value histograms (class = event code). Hits are
    counted, not histogrammed, as they happen: every hit at a level takes
    that level's constant latency, so the L1 and L2 hit classes are filled
    in from the counts here. *)

val heat : t -> Sink_heatmap.t
(** Per-block and per-region tables; filled at the full level only. *)

val chrome : t -> Sink_chrome.t

val render_summary : t -> string
(** Human-readable profile: event counts, latency histograms, and at the
    full level the hottest blocks and the WARD region table (below it, a
    line saying they are not recorded). *)
