(** Per-run execution statistics kept by the simulation engine (the
    counters behind Figures 9-11: instructions, IPC, cache hit levels). *)

type t = {
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable rmws : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable priv_misses : int;  (** Accesses that left the private hierarchy. *)
  mutable sb_stalls : int;  (** Stores that found the store buffer full. *)
  mutable cycles : int;  (** Makespan; set when the run finishes. *)
  per_thread_instructions : int array;
}

val create : threads:int -> t
val copy : t -> t

val save : t -> Warden_util.Bin.w -> unit
val restore : t -> Warden_util.Bin.r -> unit
(** Binary snapshot round trip; restore requires an equal thread count. *)

val ipc : t -> float
(** Aggregate instructions per cycle across all hardware threads
    ([instructions / cycles]). *)

val kilo_instructions : t -> float
