(** The shared-memory fabric a coherence protocol operates over.

    The simulator's memory system builds one of these and hands it to the
    protocol. It exposes exactly the actions a directory controller can
    take: probe/invalidate/downgrade a private cache's copy, and read or
    merge blocks at the shared cache (which transparently falls through to
    memory). Latency arithmetic and message accounting also live here so
    both protocols charge costs identically. *)

type probe = {
  levels : int;
      (** Cache levels holding the line in that core (1 = L2 only,
          2 = L1+L2); the paper counts coherence events per cache. *)
  state : States.pstate;
      (** The copy's state at probe time (before any transition the probe
          performs). A snooping protocol has no directory, so ownership is
          discovered from the probes themselves. *)
  data : Warden_cache.Linedata.t;  (** The copy (not a defensive copy). *)
}

type t = {
  config : Warden_machine.Config.t;
  energy : Warden_machine.Energy.t;
  stats : Pstats.t;
  obs : Warden_obs.Obs.t;
      (** Event recorder (DESIGN.md §12); a no-op shell at [Obs_off].
          Protocols report invalidations, downgrades, WARD traffic and
          reconciliation through it — never simulated state. *)
  peek_priv : core:int -> blk:int -> probe option;
      (** Observe a private copy without changing it. *)
  invalidate_priv : core:int -> blk:int -> probe option;
      (** Remove the copy from the core's private hierarchy and return it. *)
  downgrade_priv : core:int -> blk:int -> probe option;
      (** Transition the copy to shared/clean, returning it as it was
          before its dirty mask was cleared. *)
  iter_priv : core:int -> (int -> unit) -> unit;
      (** Enumerate the blocks resident in one core's private hierarchy.
          Self-invalidation protocols walk their own cache at sync points,
          and a bus's flush path walks everybody's; the directory
          protocols never need this (their bookkeeping is the walk). The
          callback must not mutate the hierarchy mid-iteration — collect
          first, then probe. *)
  read_shared : blk:int -> Warden_cache.Linedata.t * [ `L3 | `Dram | `Zero ];
      (** Fetch a block at its home LLC slice, filling from memory on an
          LLC miss; reports where it was found for latency/stats ([`Zero]
          = zero-filled fresh memory, no DRAM access). The line is a view
          of the resident LLC copy, valid until the next LLC fill. *)
  llc_merge : blk:int -> Warden_cache.Linedata.t -> unit;
      (** Merge a private copy's dirty bytes into the LLC copy
          (sectored writeback / reconciliation merge). *)
  llc_put_full : blk:int -> Warden_cache.Linedata.t -> unit;
      (** Full-line dirty writeback of a copy's data into the LLC (M-state
          eviction), whatever the copy's own mask. *)
}

val socket_of_core : t -> int -> int
val home_socket : t -> blk:int -> int
val num_cores : t -> int

val hop : t -> from_socket:int -> to_socket:int -> int
(** Latency of a third-party message leg (directory→owner, owner→requestor,
    invalidation, ack): [intra_hop_lat] within a socket, [inter_socket_lat]
    across sockets. *)

val req_leg : t -> from_socket:int -> to_socket:int -> int
(** Latency of the requestor↔home legs: 0 within a socket (the L3 access
    latency of Table 2 already covers the on-chip round trip),
    [inter_socket_lat] across sockets — or always [inter_socket_lat] on a
    disaggregated machine, where the home complex is behind the fabric. *)

val dir_leg : t -> socket:int -> blk:int -> int
(** Latency of one leg between [socket] and block [blk]'s home complex
    (directory/LLC): {!req_leg} against the home socket. *)

val dir_msg : t -> socket:int -> blk:int -> data:bool -> unit
(** Count a message between a socket and a home complex; on a
    disaggregated machine these always cross the fabric. *)

val dir_hop : t -> socket:int -> blk:int -> int
(** Latency of a directory→third-party leg (Fwd, Inv): like {!hop} but
    crossing the fabric on a disaggregated machine. *)

val msg : t -> from_socket:int -> to_socket:int -> data:bool -> unit
(** Count one protocol message and deposit its network energy. *)

val dir_access : t -> unit
(** Count a directory lookup/update. *)

val shared_read_latency : t -> [ `L3 | `Dram | `Zero ] -> int
(** L3 access latency, plus DRAM latency on a miss (doubled-leg remote
    memory when the machine is disaggregated), with stats/energy counted. *)

val bus_txn : t -> arb:int -> busy:int -> unit
(** Account one shared-bus transaction: [arb] cycles waiting for the
    round-robin arbiter and [busy] cycles of bus occupancy, with the
    combined cycles deposited as network energy (the bus is the snooping
    machine's interconnect, as hops are the switched machines'). *)

val bus_msg : t -> data:bool -> unit
(** Count one broadcast-bus message. Every snooper observes it but it is a
    single wire transaction, counted once (intra-complex). *)

val snoops : t -> int -> unit
(** Count [n] private caches probed by a bus broadcast. *)
