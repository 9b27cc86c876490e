type t = {
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable rmws : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable priv_misses : int;
  mutable sb_stalls : int;
  mutable cycles : int;
  per_thread_instructions : int array;
}

let create ~threads =
  {
    instructions = 0;
    loads = 0;
    stores = 0;
    rmws = 0;
    l1_hits = 0;
    l2_hits = 0;
    priv_misses = 0;
    sb_stalls = 0;
    cycles = 0;
    per_thread_instructions = Array.make threads 0;
  }

let copy t =
  { t with per_thread_instructions = Array.copy t.per_thread_instructions }

let save t w =
  let module B = Warden_util.Bin in
  B.w_int w t.instructions;
  B.w_int w t.loads;
  B.w_int w t.stores;
  B.w_int w t.rmws;
  B.w_int w t.l1_hits;
  B.w_int w t.l2_hits;
  B.w_int w t.priv_misses;
  B.w_int w t.sb_stalls;
  B.w_int w t.cycles;
  B.w_int_array w t.per_thread_instructions

let restore t r =
  let module B = Warden_util.Bin in
  t.instructions <- B.r_int r;
  t.loads <- B.r_int r;
  t.stores <- B.r_int r;
  t.rmws <- B.r_int r;
  t.l1_hits <- B.r_int r;
  t.l2_hits <- B.r_int r;
  t.priv_misses <- B.r_int r;
  t.sb_stalls <- B.r_int r;
  t.cycles <- B.r_int r;
  let pti = B.r_int_array r in
  if Array.length pti <> Array.length t.per_thread_instructions then
    B.corrupt "Sstats: thread count mismatch";
  Array.blit pti 0 t.per_thread_instructions 0 (Array.length pti)

let ipc t =
  if t.cycles = 0 then 0.
  else float_of_int t.instructions /. float_of_int t.cycles

let kilo_instructions t = float_of_int t.instructions /. 1000.
