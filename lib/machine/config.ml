open Warden_mem

type obs_level = Obs_off | Obs_counters | Obs_full

let obs_level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "0" | "none" -> Some Obs_off
  | "counters" | "1" -> Some Obs_counters
  | "full" | "trace" | "2" -> Some Obs_full
  | _ -> None

let obs_level_to_string = function
  | Obs_off -> "off"
  | Obs_counters -> "counters"
  | Obs_full -> "full"

type t = {
  name : string;
  sockets : int;
  cores_per_socket : int;
  threads_per_core : int;
  l1_bytes : int;
  l1_ways : int;
  l2_bytes : int;
  l2_ways : int;
  l3_bytes_per_core : int;
  l3_ways : int;
  l1_lat : int;
  l2_lat : int;
  l3_lat : int;
  dram_lat : int;
  intra_hop_lat : int;
  inter_socket_lat : int;
  hop_matrix : int array option;
  llc_remote : bool;
  dram_remote : bool;
  freq_ghz : float;
  ward_region_capacity : int;
  reconcile_per_block : int;
  recon_inplace_sole : bool;
  store_buffer_entries : int;
  sched_quantum : int;
  sim_domains : int;
  obs_level : obs_level;
}

(* warden-cli's --obs and --trace-out route to [set_default_obs_level]. *)
let default_obs_level = ref Obs_off

let set_default_obs_level l = default_obs_level := l

let num_cores t = t.sockets * t.cores_per_socket
let num_threads t = num_cores t * t.threads_per_core
(* Called on every memory access; dodge the hardware divide for the
   common one-thread-per-core machines. *)
let core_of_thread t tid =
  if t.threads_per_core = 1 then tid else tid / t.threads_per_core
let socket_of_core t core = core / t.cores_per_socket
let socket_of_thread t tid = socket_of_core t (core_of_thread t tid)
let home_socket t blk = blk mod t.sockets

let sets_of ~bytes ~ways =
  let lines = bytes / Addr.block_size in
  let sets = lines / ways in
  (* Round down to a power of two so set indexing stays a mask. *)
  let rec pow2 p = if 2 * p <= sets then pow2 (2 * p) else p in
  if sets <= 0 then 1 else pow2 1

let l1_sets t = sets_of ~bytes:t.l1_bytes ~ways:t.l1_ways
let l2_sets t = sets_of ~bytes:t.l2_bytes ~ways:t.l2_ways

let l3_sets_per_socket t =
  sets_of ~bytes:(t.l3_bytes_per_core * t.cores_per_socket) ~ways:t.l3_ways

(* Table 2 parameters; interconnect legs calibrated against Table 1. *)
let base ~name ~sockets ~threads_per_core =
  {
    name;
    sockets;
    cores_per_socket = 12;
    threads_per_core;
    l1_bytes = 32 * 1024;
    l1_ways = 8;
    l2_bytes = 256 * 1024;
    l2_ways = 8;
    l3_bytes_per_core = 2_560 * 1024;
    l3_ways = 20;
    l1_lat = 6;
    l2_lat = 16;
    l3_lat = 71;
    dram_lat = 140;
    intra_hop_lat = 60;
    inter_socket_lat = 230;
    hop_matrix = None;
    llc_remote = false;
    dram_remote = false;
    freq_ghz = 3.3;
    ward_region_capacity = 1024;
    reconcile_per_block = 6;
    recon_inplace_sole = false;
    store_buffer_entries = 56;
    sched_quantum = 4096;
    sim_domains = 1;
    obs_level = !default_obs_level;
  }

let single_socket ?(threads_per_core = 1) () =
  base ~name:"single-socket" ~sockets:1 ~threads_per_core

let dual_socket ?(threads_per_core = 1) () =
  base ~name:"dual-socket" ~sockets:2 ~threads_per_core

let many_socket ?cores_per_socket ~sockets () =
  let t = base ~name:(Printf.sprintf "%d-socket" sockets) ~sockets ~threads_per_core:1 in
  match cores_per_socket with
  | None -> t
  | Some per ->
      if per <= 0 then invalid_arg "Config.many_socket: nonpositive cores";
      {
        t with
        cores_per_socket = per;
        name = Printf.sprintf "%d-socket-%dc" sockets per;
      }

(* One cross-socket interconnect leg between two sockets of the hop
   matrix, falling back to the uniform [inter_socket_lat] when no matrix
   is configured (every pre-existing topology — results there are
   bit-identical by construction). The diagonal is the on-chip leg. *)
let hop_lat t ~from_socket ~to_socket =
  if from_socket = to_socket then t.intra_hop_lat
  else
    match t.hop_matrix with
    | None -> t.inter_socket_lat
    | Some m -> m.((from_socket * t.sockets) + to_socket)

(* Many-socket NUMA machine for the 64→512-core scaling study: sockets
   arranged in a 2D mesh (rows x cols as square as the count allows), one
   [inter_socket_lat] for adjacent sockets plus one [intra_hop_lat]-sized
   router step per additional Manhattan hop. Symmetric by construction;
   [inter_socket_lat] remains the 1-hop base, so at 2 sockets the matrix
   degenerates to the uniform dual-socket fabric. *)
let numa_mesh ?(cores_per_socket = 16) ~sockets () =
  if sockets < 1 || sockets > 62 then
    invalid_arg "Config.numa_mesh: sockets must be in 1..62";
  if cores_per_socket <= 0 || cores_per_socket > 62 then
    invalid_arg "Config.numa_mesh: cores_per_socket must be in 1..62";
  let rec divisor r = if sockets mod r = 0 then r else divisor (r - 1) in
  let rows = divisor (max 1 (int_of_float (sqrt (float_of_int sockets)))) in
  let cols = sockets / rows in
  let t =
    base
      ~name:(Printf.sprintf "%d-socket-mesh-%dc" sockets cores_per_socket)
      ~sockets ~threads_per_core:1
  in
  let m = Array.make (sockets * sockets) t.intra_hop_lat in
  for f = 0 to sockets - 1 do
    for g = 0 to sockets - 1 do
      if f <> g then begin
        let dist =
          abs ((f / cols) - (g / cols)) + abs ((f mod cols) - (g mod cols))
        in
        m.((f * sockets) + g) <-
          t.inter_socket_lat + ((dist - 1) * t.intra_hop_lat)
      end
    done
  done;
  { t with cores_per_socket; hop_matrix = Some m }

let disaggregated () =
  (* 1 us remote access at 3.3 GHz = 3300 cycles per fabric crossing. The
     processors are disaggregated from their shared memory hierarchy: the
     shared cache, directory and memory all sit across the fabric, so
     every leg to or from the home complex is a crossing. *)
  {
    (base ~name:"disaggregated" ~sockets:2 ~threads_per_core:1) with
    inter_socket_lat = 3300;
    llc_remote = true;
    dram_remote = false;
  }

let with_cores t n =
  if n <= 0 then invalid_arg "Config.with_cores: nonpositive";
  if n mod t.sockets <> 0 then invalid_arg "Config.with_cores: not divisible";
  let per = n / t.sockets in
  if per > t.cores_per_socket then invalid_arg "Config.with_cores: too many";
  { t with cores_per_socket = per; name = Printf.sprintf "%s/%dc" t.name n }

let pp fmt t =
  let kb n = Printf.sprintf "%d KB" (n / 1024) in
  Format.fprintf fmt
    "@[<v>%s: %d socket(s) x %d cores x %d thread(s)@,\
     L1 %s/%d-way  L2 %s/%d-way  L3 %s-per-core/%d-way@,\
     latencies L1/L2/L3 %d-%d-%d cycles, DRAM +%d, hop %d, socket link %d%s%s@,\
     %.1f GHz, %d WARD regions, reconcile %d cyc/block, store buffer %d@,\
     scheduler quantum %d, obs %s@]"
    t.name t.sockets t.cores_per_socket t.threads_per_core (kb t.l1_bytes)
    t.l1_ways (kb t.l2_bytes) t.l2_ways (kb t.l3_bytes_per_core) t.l3_ways
    t.l1_lat t.l2_lat t.l3_lat t.dram_lat t.intra_hop_lat t.inter_socket_lat
    (match t.hop_matrix with
    | None -> ""
    | Some m ->
        Printf.sprintf " (NUMA hop matrix, worst leg %d)"
          (Array.fold_left max 0 m))
    (if t.dram_remote then " (remote memory)" else "")
    t.freq_ghz t.ward_region_capacity t.reconcile_per_block
    t.store_buffer_entries t.sched_quantum
    (obs_level_to_string t.obs_level)
