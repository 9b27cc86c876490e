(** Event-based energy accounting, standing in for the McPAT power model
    the paper uses (§7).

    Every memory-system event deposits a fixed energy cost into one of four
    buckets. The paper's reported categories map as:
    - "Total Processor" = core + cache + DRAM buckets;
    - "Interconnect" / "Network" = the network bucket.

    Costs default to published McPAT/CACTI ballparks for a 22 nm Xeon-class
    part; their absolute scale is irrelevant to the reproduced results,
    which are all relative (percent savings). *)

type costs = {
  core_cycle_pj : float;  (** Per core per cycle (dynamic + leakage share). *)
  l1_pj : float;
  l2_pj : float;
  l3_pj : float;
  dir_pj : float;  (** Directory lookup/update. *)
  dram_pj : float;
  msg_intra_pj : float;  (** Coherence message staying within a socket. *)
  msg_inter_pj : float;  (** Coherence message crossing sockets. *)
  cam_pj : float;  (** WARD range-CAM lookup. *)
  bus_cycle_pj : float;
      (** One cycle of shared-bus occupancy (arbitration or transfer) on a
          snooping machine; deposits into the network bucket. *)
}

val default_costs : costs

type t

val create : ?costs:costs -> unit -> t

val costs : t -> costs

(* Deposit events. *)
val core_cycles : t -> cores:int -> cycles:int -> unit
val l1_access : t -> unit
val l2_access : t -> unit

val l3_access : t -> unit
val dir_access : t -> unit
val dram_access : t -> unit

val message : t -> inter_socket:bool -> data:bool -> unit
(** Control messages cost one flit; [data] messages carry a 64-byte block
    and cost five. *)

val cam_lookup : t -> unit

val bus_cycles : t -> int -> unit
(** [n] cycles of shared-bus occupancy, deposited into the network bucket
    (the bus is the snooping machine's interconnect). Integer-valued, so
    bulk deposits are bit-identical to repeated single-cycle deposits. *)

val save : t -> Warden_util.Bin.w -> unit
(** Snapshot the four accumulators as raw float bits (exact). *)

val restore : t -> Warden_util.Bin.r -> unit

(* Read accumulated energy, in picojoules. *)
val core_pj : t -> float
val cache_pj : t -> float
val dram_pj : t -> float
val network_pj : t -> float

val processor_pj : t -> float
(** core + cache + DRAM: the paper's "Total Processor". *)

val total_pj : t -> float
