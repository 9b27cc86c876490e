type costs = {
  core_cycle_pj : float;
  l1_pj : float;
  l2_pj : float;
  l3_pj : float;
  dir_pj : float;
  dram_pj : float;
  msg_intra_pj : float;
  msg_inter_pj : float;
  cam_pj : float;
  bus_cycle_pj : float;
}

let default_costs =
  {
    core_cycle_pj = 900.0;
    l1_pj = 15.0;
    l2_pj = 45.0;
    l3_pj = 240.0;
    dir_pj = 60.0;
    dram_pj = 15_000.0;
    msg_intra_pj = 300.0;
    msg_inter_pj = 6_000.0;
    cam_pj = 8.0;
    bus_cycle_pj = 120.0;
  }

(* Accumulators live in a float array: OCaml stores float arrays flat, so
   a deposit updates in place instead of boxing a fresh float per event
   (mixed records box their float fields on every assignment, and deposits
   happen on every simulated memory access). *)
let core_i = 0
let cache_i = 1
let dram_i = 2
let network_i = 3

type t = { c : costs; acc : float array }

let create ?(costs = default_costs) () = { c = costs; acc = Array.make 4 0. }
let costs t = t.c
let deposit t i x = Array.unsafe_set t.acc i (Array.unsafe_get t.acc i +. x)

let core_cycles t ~cores ~cycles =
  deposit t core_i (float_of_int cores *. float_of_int cycles *. t.c.core_cycle_pj)

let l1_access t = deposit t cache_i t.c.l1_pj
let l2_access t = deposit t cache_i t.c.l2_pj

let l3_access t = deposit t cache_i t.c.l3_pj
let dir_access t = deposit t cache_i t.c.dir_pj
let dram_access t = deposit t dram_i t.c.dram_pj

let message t ~inter_socket ~data =
  let base = if inter_socket then t.c.msg_inter_pj else t.c.msg_intra_pj in
  deposit t network_i (if data then 5. *. base else base)

let cam_lookup t = deposit t cache_i t.c.cam_pj

(* A shared snooping bus is interconnect: occupancy cycles (arbitration
   plus transfer) deposit into the network bucket, exactly as hop-counted
   messages do on the switched fabrics. *)
let bus_cycles t n = deposit t network_i (float_of_int n *. t.c.bus_cycle_pj)

(* Snapshot the four accumulators as raw float bits (exact round trip). *)
let save t w = Warden_util.Bin.w_float_array w t.acc

let restore t r =
  let acc = Warden_util.Bin.r_float_array r in
  if Array.length acc <> 4 then Warden_util.Bin.corrupt "Energy: bad snapshot";
  Array.blit acc 0 t.acc 0 4

let core_pj t = t.acc.(core_i)
let cache_pj t = t.acc.(cache_i)
let dram_pj t = t.acc.(dram_i)
let network_pj t = t.acc.(network_i)
let processor_pj t = core_pj t +. cache_pj t +. dram_pj t
let total_pj t = processor_pj t +. network_pj t
