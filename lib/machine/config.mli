(** Machine configurations.

    Default values follow Table 2 of the paper: 32 KB / 8-way L1,
    256 KB / 8-way L2, 2.5 MB-per-core / 20-way shared L3, 64 B blocks,
    12 cores per socket, L1/L2/L3 latencies of 6/16/71 cycles, 3.3 GHz.
    Interconnect latencies are calibrated against the paper's Table 1
    ping-pong measurements (see [bench/main.ml], Table 1). *)

type obs_level =
  | Obs_off  (** No observability work at all (the default). *)
  | Obs_counters
      (** Histograms, heatmaps and event counters only — cheap enough for
          benchmarking (CI enforces < 3% simulation-throughput cost). *)
  | Obs_full  (** Counters plus per-event ring buffers for Chrome traces. *)

val obs_level_of_string : string -> obs_level option
(** Accepts [off]/[counters]/[full] (also [0]/[1]/[2], [none], [trace]). *)

val obs_level_to_string : obs_level -> string

type t = {
  name : string;
  sockets : int;
  cores_per_socket : int;
  threads_per_core : int;  (** SMT contexts sharing a core's private caches. *)
  l1_bytes : int;
  l1_ways : int;
  l2_bytes : int;
  l2_ways : int;
  l3_bytes_per_core : int;
  l3_ways : int;
  l1_lat : int;  (** L1 hit latency (cycles). *)
  l2_lat : int;  (** L2 hit latency. *)
  l3_lat : int;  (** Shared-L3 / directory access latency, same socket. *)
  dram_lat : int;  (** Additional DRAM latency beyond the L3 access. *)
  intra_hop_lat : int;
      (** One on-chip interconnect leg (directory→owner or owner→requestor)
          within a socket. *)
  inter_socket_lat : int;  (** One crossing of the socket interconnect. *)
  hop_matrix : int array option;
      (** Per-socket-pair interconnect leg latencies, flattened
          [from * sockets + to], for NUMA topologies where sockets are not
          equidistant (the many-socket scaling machines). [None] — every
          pre-existing topology — means a uniform [inter_socket_lat] for
          any cross-socket leg, reproducing the original fabric exactly.
          Entries must be symmetric; the diagonal is ignored in favour of
          [intra_hop_lat]. *)
  llc_remote : bool;
      (** Disaggregation (§7.3): the shared cache / directory / memory
          complex sits across the fabric, so every leg between a core and
          the home complex costs [inter_socket_lat]. *)
  dram_remote : bool;
      (** Memory even further than the home complex: every DRAM access
          also pays [inter_socket_lat] each way. *)
  freq_ghz : float;
  ward_region_capacity : int;
      (** Simultaneous WARD regions the range CAM can hold (paper: 1024). *)
  reconcile_per_block : int;
      (** Cycles charged per cache block flushed by reconciliation. *)
  recon_inplace_sole : bool;
      (** §5.2's "no sharing" case: convert a sole holder's block to E/M in
          place instead of flushing it. The paper's implementation (§6.1)
          flushes {e all} WARD blocks — which is what produces the §5.3
          proactive-flush benefit — so this defaults to [false]; enabling
          it is an ablation. *)
  store_buffer_entries : int;
      (** Store-buffer slots per hardware thread; stores only stall the
          thread when the buffer is full (§7.2 analysis). *)
  sim_domains : int;
      (** Always [1]: {!Warden_sim.Memsys.create} rejects any other value.
          One simulation runs on one host domain; host parallelism comes
          from running independent simulations side by side ([--jobs]).
          Kept only until the performance ledger stops setting it. *)
  obs_level : obs_level;
      (** Coherence-event observability (DESIGN.md §12). Recording never
          feeds back into the simulation: simulated cycles, statistics and
          energy are bit-identical across all three levels. Default
          [Obs_off]. *)
}

val num_cores : t -> int
val num_threads : t -> int
val core_of_thread : t -> int -> int
val socket_of_core : t -> int -> int
val socket_of_thread : t -> int -> int

val home_socket : t -> int -> int
(** Home socket of a block: directory entries and L3 slices are interleaved
    across sockets by block number. *)

val l1_sets : t -> int
val l2_sets : t -> int

val l3_sets_per_socket : t -> int
(** Sets of one socket's L3 slice ([l3_bytes_per_core * cores_per_socket]
    capacity). *)

val single_socket : ?threads_per_core:int -> unit -> t
(** 12 cores, one socket (§7.2 "Single socket"). *)

val dual_socket : ?threads_per_core:int -> unit -> t
(** 24 cores across two sockets (§7.2 "Dual socket"). *)

val many_socket : ?cores_per_socket:int -> sockets:int -> unit -> t
(** §7.3 "Many Sockets": same per-socket structure, more sockets. The
    default 12 cores per socket matches Table 2; pass [cores_per_socket]
    for the larger scaling geometries. *)

val hop_lat : t -> from_socket:int -> to_socket:int -> int
(** One interconnect leg between two sockets: [intra_hop_lat] on the
    diagonal, the {!field-hop_matrix} entry across sockets, or the uniform
    [inter_socket_lat] when no matrix is configured. *)

val numa_mesh : ?cores_per_socket:int -> sockets:int -> unit -> t
(** Many-socket NUMA machine for the 64→512-core scaling study (DiSquawk's
    "512 cores, 512 memories" regime): sockets in a near-square 2D mesh,
    adjacent sockets one [inter_socket_lat] apart plus one router step of
    [intra_hop_lat] per extra Manhattan hop, recorded in
    {!field-hop_matrix}. Default 16 cores per socket, so
    [numa_mesh ~sockets:32 ()] is the 512-core machine. Sockets and
    cores-per-socket are both capped at 62 (the directory's per-socket
    sharer words, DESIGN.md §14). *)

val disaggregated : unit -> t
(** §7.3 "Disaggregated": two nodes, 1 µs remote access
    (= 3300 cycles at 3.3 GHz) on every inter-node leg and on memory. *)

val with_cores : t -> int -> t
(** Restrict to the first [n] hardware threads (scaling studies). Raises if
    [n] exceeds the configured thread count or is not positive. *)

val pp : Format.formatter -> t -> unit
(** Render the configuration as a Table-2-style listing. *)
