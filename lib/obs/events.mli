(** The coherence-event vocabulary of [warden.obs].

    Every event is identified by a small integer code so recorders and
    sinks can store events in flat int arrays (no per-event allocation on
    the simulator's hot path). The codes form two families:

    - {e access classes} ([l1_hit] .. [upgrade]): one per simulated memory
      access, classified by the level that served it; their value is the
      access latency in simulated cycles.
    - {e coherence events} ([invalidation] .. [recon]): the protocol
      traffic the paper's §7 analysis is built on; their value is
      event-specific (cache levels touched, stall cycles, flushed blocks —
      see {!val-name}'s docstrings below). *)

val l1_hit : int
(** Access served by the L1; value = L1 hit latency. *)

val l2_hit : int
(** Access served by the L2; value = L2 hit latency. *)

val miss : int
(** Private-cache miss served by the directory; value = total latency. *)

val upgrade : int
(** Write to an S copy (permission miss); value = total latency. *)

val invalidation : int
(** A private copy invalidated by the protocol; value = cache levels. *)

val downgrade : int
(** A private copy downgraded to S; value = cache levels. *)

val ward_grant : int
(** A request served in WARD mode (Fig. 5); value = grant latency. *)

val ward_enter : int
(** A WARD region activated ([region_add]); value = blocks spanned. *)

val ward_exit : int
(** A WARD region deactivated; value = blocks flushed by reconciliation. *)

val sb_stall : int
(** Store issued into a full store buffer; value = stall cycles. *)

val recon : int
(** One private copy flushed/merged by reconciliation; value = levels. *)

val count : int
(** Number of event codes; codes are dense in [0, count). *)

val name : int -> string
(** Short stable name ("l1-hit", "inv", ...). Raises on bad codes. *)

val traced : int -> bool
(** Whether full-mode recording stores individual records of this code in
    the Chrome sink (hits are summarized only — tracing every hit would
    swamp the trace for no analytical value). *)

val duration_event : int -> bool
(** Whether the event's value is a latency, i.e. it renders as a Chrome
    duration ("ph":"X") rather than an instant ("ph":"i"). *)

val heat_class : int -> int
(** Column of the per-block heatmap this event lands in, or [-1] if it is
    not attributed to a block ({!Sink_heatmap} has [heat_classes] columns). *)

val heat_classes : int
val heat_class_name : int -> string
