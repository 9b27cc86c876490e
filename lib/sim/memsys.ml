open Warden_mem
open Warden_cache
open Warden_machine
open Warden_proto
module Obs = Warden_obs.Obs
module Oev = Warden_obs.Events

(* Commit-order trace sink (DESIGN.md §15). A flat callback — (kind,
   thread, addr, size, value) — invoked at the point each access commits
   its memory-system transition, on whichever path served it (scheduled
   or inline fast). Unlike the initiation-order recorder in
   [Warden_trace.Recorder], this stream is in commit order, so feeding it
   back through the access entry points replays the exact transition
   sequence with no program model. Flat ints avoid a circular
   dependency on the trace library. *)
let k_load = 0
let k_store = 1
let k_rmw = 2 (* value = the committed new value, not the RMW function *)
let k_region_add = 3 (* addr = lo, size = hi *)
let k_region_remove = 4 (* addr = lo, size = hi *)
let k_flush = 5
let k_poke = 6
let k_acquire = 7 (* addr = size = 0 *)
let k_release = 8 (* addr = size = 0 *)

let no_sink _ _ _ _ _ = ()

type t = {
  cfg : Config.t;
  energy : Energy.t;
  pstats : Pstats.t;
  sstats : Sstats.t;
  obs : Obs.t;
  obs_on : bool; (* cached [Obs.enabled]: keeps the off path to one branch *)
  store : Store.t;
  llc : Llc.t;
  mutable priv : Privcache.t array;
  mutable proto : Protocol.t option;
  mutable self_sync : bool;
      (* cached [Protocol.kind = `Self]: such protocols take their
         coherence from the runtime's acquire/release fences, and their
         atomics must be pinned to the coherent scheduled path *)
  mutable bump : int;
  mutable fast_value : int64; (* value of the last fast load/rmw hit *)
  mutable sink : int -> int -> int -> int -> int64 -> unit;
  mutable sink_on : bool; (* cached [sink != no_sink], one-branch off path *)
}

let the_proto t =
  match t.proto with Some p -> p | None -> failwith "Memsys: not initialized"

let config t = t.cfg
let llc t = t.llc
let protocol t = the_proto t
let pstats t = t.pstats

let sstats t = t.sstats
let energy t = t.energy
let obs t = t.obs

let set_trace_sink t s =
  match s with
  | None ->
      t.sink <- no_sink;
      t.sink_on <- false
  | Some f ->
      t.sink <- f;
      t.sink_on <- true

let create cfg ~proto =
  if cfg.Config.sim_domains <> 1 then
    invalid_arg
      "Memsys.create: sim_domains must be 1; use --jobs for host parallelism";
  let energy = Energy.create () in
  let pstats = Pstats.create () in
  let sstats = Sstats.create ~threads:(Config.num_threads cfg) in
  let store = Store.create () in
  let llc = Llc.create cfg store in
  let obs = Obs.create cfg in
  let t =
    {
      cfg;
      energy;
      pstats;
      sstats;
      obs;
      obs_on = Obs.enabled obs;
      store;
      llc;
      priv = [||];
      proto = None;
      self_sync = false;
      fast_value = 0L;
      (* Leave page zero unmapped so address 0 can act as a null. *)
      bump = 1 lsl 16;
      sink = no_sink;
      sink_on = false;
    }
  in
  t.priv <-
    Array.init (Config.num_cores cfg) (fun core ->
        Privcache.create cfg ~evict:(fun ~blk pstate data ->
            Protocol.handle_evict (the_proto t) ~core ~blk ~pstate ~data));
  let fabric =
    {
      Fabric.config = cfg;
      energy;
      stats = pstats;
      obs;
      peek_priv = (fun ~core ~blk -> Privcache.peek t.priv.(core) ~blk);
      invalidate_priv = (fun ~core ~blk -> Privcache.invalidate t.priv.(core) ~blk);
      downgrade_priv = (fun ~core ~blk -> Privcache.downgrade t.priv.(core) ~blk);
      iter_priv =
        (fun ~core f ->
          Privcache.iter_resident t.priv.(core) (fun blk _ -> f blk));
      read_shared =
        (fun ~blk -> Llc.read llc ~socket:(Config.home_socket cfg blk) ~blk);
      llc_merge =
        (fun ~blk src -> Llc.merge llc ~socket:(Config.home_socket cfg blk) ~blk src);
      llc_put_full =
        (fun ~blk src ->
          Llc.put_full llc ~socket:(Config.home_socket cfg blk) ~blk src);
    }
  in
  t.proto <-
    Some
      (match proto with
      | `Mesi -> Protocol.mesi fabric
      | `Warden -> Warden_core.Warden.protocol fabric
      | `Msi_bus -> Msi_bus.protocol fabric
      | `Sisd -> Sisd.protocol fabric);
  t.self_sync <- Protocol.kind (the_proto t) = `Self;
  t

(* Obtain a line with sufficient permission, returning its slot in the
   core's private cache and the access latency up to the point the data
   is available to the core. *)
let access_line t ~thread ~blk ~write =
  let core = Config.core_of_thread t.cfg thread in
  let pc = t.priv.(core) in
  let ss = t.sstats in
  Energy.l1_access t.energy;
  match Privcache.lookup pc ~blk ~write with
  | Privcache.Hit { slot; lat; level } ->
      (match level with
      | `L1 ->
          ss.Sstats.l1_hits <- ss.Sstats.l1_hits + 1;
          if t.obs_on then Obs.access t.obs ~cls:Oev.l1_hit ~core ~blk ~lat
      | `L2 ->
          ss.Sstats.l2_hits <- ss.Sstats.l2_hits + 1;
          Energy.l2_access t.energy;
          if t.obs_on then Obs.access t.obs ~cls:Oev.l2_hit ~core ~blk ~lat);
      (slot, lat)
  | Privcache.Upgrade slot ->
      ss.Sstats.priv_misses <- ss.Sstats.priv_misses + 1;
      Energy.l2_access t.energy;
      let g =
        Protocol.handle_request (the_proto t) ~core ~blk ~write:true ~holds_s:true
      in
      (* A WARD grant may re-fill even on upgrade paths; accept it. *)
      if Mesi.has_fill g then
        Linedata.fill_from (Privcache.data pc slot) g.Mesi.fill;
      Privcache.set_state pc slot g.Mesi.pstate;
      let lat = t.cfg.Config.l2_lat + g.Mesi.latency in
      if t.obs_on then Obs.access t.obs ~cls:Oev.upgrade ~core ~blk ~lat;
      (slot, lat)
  | Privcache.Miss ->
      ss.Sstats.priv_misses <- ss.Sstats.priv_misses + 1;
      Energy.l2_access t.energy;
      let g =
        Protocol.handle_request (the_proto t) ~core ~blk ~write ~holds_s:false
      in
      assert (Mesi.has_fill g);
      let slot = Privcache.fill pc ~blk g.Mesi.pstate g.Mesi.fill in
      let lat = t.cfg.Config.l2_lat + g.Mesi.latency in
      if t.obs_on then Obs.access t.obs ~cls:Oev.miss ~core ~blk ~lat;
      (slot, lat)

let count_load t = t.sstats.Sstats.loads <- t.sstats.Sstats.loads + 1
let count_store t = t.sstats.Sstats.stores <- t.sstats.Sstats.stores + 1
let count_rmw t = t.sstats.Sstats.rmws <- t.sstats.Sstats.rmws + 1

let priv_of t thread = t.priv.(Config.core_of_thread t.cfg thread)

let load t ~thread addr ~size =
  count_load t;
  let blk = Addr.block_of addr in
  let slot, lat = access_line t ~thread ~blk ~write:false in
  let v =
    Privcache.load (priv_of t thread) slot
      ~off:(Addr.offset_in_block addr)
      ~size
  in
  if t.sink_on then t.sink k_load thread addr size v;
  (v, lat)

let store t ~thread addr ~size v =
  count_store t;
  let blk = Addr.block_of addr in
  let slot, lat = access_line t ~thread ~blk ~write:true in
  Privcache.write (priv_of t thread) slot
    ~off:(Addr.offset_in_block addr)
    ~size v;
  if t.sink_on then t.sink k_store thread addr size v;
  lat

(* Atomics under a self-invalidation protocol. The plain access paths may
   serve stale bytes by design, but an RMW is a synchronization primitive
   (locks, join counters): it must read the globally latest value and
   publish its result. Model the standard SI/SD answer — perform atomics
   at the shared level: drop any local copy (flushing its dirty sectors),
   miss-fill the current bytes through the ordinary request path, apply
   the operation, and write the result straight back through, keeping a
   clean S copy. *)
let rmw_coherent t ~thread addr ~size f =
  let core = Config.core_of_thread t.cfg thread in
  count_rmw t;
  let blk = Addr.block_of addr in
  let pc = t.priv.(core) in
  let fab = Protocol.fabric (the_proto t) in
  let cs = Config.socket_of_core t.cfg core in
  (match Privcache.invalidate pc ~blk with
  | None -> ()
  | Some p ->
      t.pstats.Pstats.self_invs <-
        t.pstats.Pstats.self_invs + p.Fabric.levels;
      if Linedata.is_dirty p.Fabric.data then begin
        Fabric.dir_msg fab ~socket:cs ~blk ~data:true;
        t.pstats.Pstats.writebacks <- t.pstats.Pstats.writebacks + 1;
        fab.Fabric.llc_merge ~blk p.Fabric.data
      end);
  let slot, lat = access_line t ~thread ~blk ~write:true in
  let off = Addr.offset_in_block addr in
  let old = Privcache.load pc slot ~off ~size in
  let nv = f old in
  Privcache.write pc slot ~off ~size nv;
  (* Write-through of the result; the copy left behind is clean S. *)
  Fabric.dir_msg fab ~socket:cs ~blk ~data:true;
  let line = Privcache.data pc slot in
  fab.Fabric.llc_merge ~blk line;
  Linedata.clear_dirty line;
  Privcache.set_state pc slot States.P_S;
  t.pstats.Pstats.self_downs <- t.pstats.Pstats.self_downs + 1;
  if t.sink_on then t.sink k_rmw thread addr size nv;
  (old, lat)

let rmw t ~thread addr ~size f =
  if t.self_sync then rmw_coherent t ~thread addr ~size f
  else begin
    count_rmw t;
    let blk = Addr.block_of addr in
    let slot, lat = access_line t ~thread ~blk ~write:true in
    let pc = priv_of t thread in
    let off = Addr.offset_in_block addr in
    let old = Privcache.load pc slot ~off ~size in
    let nv = f old in
    Privcache.write pc slot ~off ~size nv;
    if t.sink_on then t.sink k_rmw thread addr size nv;
    (old, lat)
  end

(* Runtime sync points (fork/join edges in the Par runtime). Only [`Self]
   protocols do work here; the engine does not even raise the effect for
   the eagerly-coherent ones, keeping their schedules untouched. *)
let acquire t ~thread =
  if t.sink_on then t.sink k_acquire thread 0 0 0L;
  t.pstats.Pstats.acquires <- t.pstats.Pstats.acquires + 1;
  Protocol.acquire (the_proto t)
    ~core:(Config.core_of_thread t.cfg thread)

let release t ~thread =
  if t.sink_on then t.sink k_release thread 0 0 0L;
  t.pstats.Pstats.releases <- t.pstats.Pstats.releases + 1;
  Protocol.release (the_proto t)
    ~core:(Config.core_of_thread t.cfg thread)

(* Fast-path accessors: commit iff the access is a private-cache hit
   needing no protocol transition, with event/energy accounting identical
   to the scheduled [load]/[store]/[rmw] paths; return the latency on a
   hit and [-1] — with no state change — otherwise. The engine serves
   every hit through these, inline or scheduled, and calls the full paths
   only on an upgrade or a miss. They allocate nothing: the loaded value
   of a fast load/rmw is left in [fast_value] rather than returned in a
   tuple.

   Returns the serving level's latency and counts its events. *)

let fast_hit_accounting t ~core ~blk (l1 : bool) =
  let ss = t.sstats in
  Energy.l1_access t.energy;
  if l1 then begin
    ss.Sstats.l1_hits <- ss.Sstats.l1_hits + 1;
    let lat = t.cfg.Config.l1_lat in
    if t.obs_on then Obs.access t.obs ~cls:Oev.l1_hit ~core ~blk ~lat;
    lat
  end
  else begin
    ss.Sstats.l2_hits <- ss.Sstats.l2_hits + 1;
    Energy.l2_access t.energy;
    let lat = t.cfg.Config.l2_lat in
    if t.obs_on then Obs.access t.obs ~cls:Oev.l2_hit ~core ~blk ~lat;
    lat
  end

let fast_value t = t.fast_value

let try_fast_load t ~thread addr ~size =
  let blk = Addr.block_of addr in
  let core = Config.core_of_thread t.cfg thread in
  let pc = t.priv.(core) in
  let slot = Privcache.fast_hit pc ~blk ~write:false in
  if slot < 0 then -1
  else begin
    count_load t;
    t.fast_value <-
      Privcache.load pc slot ~off:(Addr.offset_in_block addr) ~size;
    if t.sink_on then t.sink k_load thread addr size t.fast_value;
    fast_hit_accounting t ~core ~blk (Privcache.last_l1 pc)
  end

let try_fast_store t ~thread addr ~size v =
  let blk = Addr.block_of addr in
  let core = Config.core_of_thread t.cfg thread in
  let pc = t.priv.(core) in
  let slot = Privcache.fast_hit pc ~blk ~write:true in
  if slot < 0 then -1
  else begin
    count_store t;
    Privcache.write pc slot ~off:(Addr.offset_in_block addr) ~size v;
    if t.sink_on then t.sink k_store thread addr size v;
    fast_hit_accounting t ~core ~blk (Privcache.last_l1 pc)
  end

let try_fast_rmw t ~thread addr ~size f =
  if t.self_sync then -1 (* atomics take the coherent scheduled path *)
  else
  let blk = Addr.block_of addr in
  let core = Config.core_of_thread t.cfg thread in
  let pc = t.priv.(core) in
  let slot = Privcache.fast_hit pc ~blk ~write:true in
  if slot < 0 then -1
  else begin
    count_rmw t;
    let off = Addr.offset_in_block addr in
    let old = Privcache.load pc slot ~off ~size in
    let nv = f old in
    Privcache.write pc slot ~off ~size nv;
    if t.sink_on then t.sink k_rmw thread addr size nv;
    t.fast_value <- old;
    fast_hit_accounting t ~core ~blk (Privcache.last_l1 pc)
  end

(* --- trace replay (DESIGN.md §15) ---------------------------------------- *)

(* Replay entry points: the per-event work of [try_fast_*] with the
   scheduled fallback fused in, minus work a replayed stream never
   observes. A replayed load's value is already in the recording and a
   load mutates neither the line data nor anything [fast_value] feeds
   (it is reset across quiescent points and never snapshotted), so the
   fast hit skips [Linedata.load] and the [fast_value] write — about a
   third of the fast-load cost, most of it Int64 boxing. A replayed
   RMW's new value is recorded, so the hit path skips loading the old
   value. No sink fires: recording during replay is unsupported (the
   stream itself is the recording). Every state mutation and every
   stats/energy/obs account is identical to the live paths, which is
   what makes replayed final stats bit-identical to the recorded run. *)

let replay_load t ~thread addr ~size =
  let blk = Addr.block_of addr in
  let core = Config.core_of_thread t.cfg thread in
  let pc = t.priv.(core) in
  if Privcache.fast_hit pc ~blk ~write:false < 0 then
    ignore (load t ~thread addr ~size : int64 * int)
  else begin
    count_load t;
    ignore (fast_hit_accounting t ~core ~blk (Privcache.last_l1 pc) : int)
  end

let replay_store t ~thread addr ~size v =
  let blk = Addr.block_of addr in
  let core = Config.core_of_thread t.cfg thread in
  let pc = t.priv.(core) in
  let slot = Privcache.fast_hit pc ~blk ~write:true in
  if slot < 0 then ignore (store t ~thread addr ~size v : int)
  else begin
    count_store t;
    Privcache.write pc slot ~off:(Addr.offset_in_block addr) ~size v;
    ignore (fast_hit_accounting t ~core ~blk (Privcache.last_l1 pc) : int)
  end

let replay_rmw t ~thread addr ~size nv =
  if t.self_sync then
    (* Atomics never took the fast path live, so replay them scheduled. *)
    ignore (rmw t ~thread addr ~size (fun _ -> nv) : int64 * int)
  else
  let blk = Addr.block_of addr in
  let core = Config.core_of_thread t.cfg thread in
  let pc = t.priv.(core) in
  let slot = Privcache.fast_hit pc ~blk ~write:true in
  if slot < 0 then
    let f = fun (_ : int64) -> nv in
    ignore (rmw t ~thread addr ~size f : int64 * int)
  else begin
    count_rmw t;
    Privcache.write pc slot ~off:(Addr.offset_in_block addr) ~size nv;
    ignore (fast_hit_accounting t ~core ~blk (Privcache.last_l1 pc) : int)
  end

(* Region activity is recorded here — not in the protocols — so the trace
   reflects the runtime's annotations under MESI too, where the protocol
   itself ignores them. [flushed] is recovered from the charged latency
   (exactly [flushed * reconcile_per_block] by construction). *)
let region_add t ~thread ~lo ~hi =
  if t.sink_on then t.sink k_region_add thread lo hi 0L;
  let ok = Protocol.region_add (the_proto t) ~lo ~hi in
  (* Even a rejected attempt (always, under MESI) is an annotation the
     profile should show. *)
  if t.obs_on then
    Obs.region t.obs
      ~core:(Config.core_of_thread t.cfg thread)
      ~lo ~hi ~exit:false ~flushed:0;
  ok

let region_remove t ~thread ~lo ~hi =
  if t.sink_on then t.sink k_region_remove thread lo hi 0L;
  let lat = Protocol.region_remove (the_proto t) ~lo ~hi in
  if t.obs_on then
    Obs.region t.obs
      ~core:(Config.core_of_thread t.cfg thread)
      ~lo ~hi ~exit:true
      ~flushed:(lat / max 1 t.cfg.Config.reconcile_per_block);
  lat

let alloc t ~bytes ~align =
  if align <= 0 || align land (align - 1) <> 0 then
    invalid_arg "Memsys.alloc: align";
  let addr = (t.bump + align - 1) land lnot (align - 1) in
  t.bump <- addr + bytes;
  addr

let flush_all t =
  if t.sink_on then t.sink k_flush (-1) 0 0 0L;
  Protocol.flush_all (the_proto t);
  Llc.flush_to_store t.llc

let peek t addr ~size = Store.load t.store addr ~size

let poke t addr ~size v =
  if t.sink_on then t.sink k_poke (-1) addr size v;
  Store.store t.store addr ~size v

let footprint_bytes t = Store.footprint_bytes t.store

(* --- snapshot (DESIGN.md §15) -------------------------------------------- *)

(* Only meaningful at quiescent points (between [Engine.run]s): no
   continuation holds unretired accesses, so the full simulated state is
   the flat structures below. *)
let save_state t w =
  Store.save t.store w;
  Llc.save t.llc w;
  Warden_util.Bin.w_int w (Array.length t.priv);
  Array.iter (fun pc -> Privcache.save pc w) t.priv;
  Protocol.save_state (the_proto t) w;
  Pstats.save t.pstats w;
  Sstats.save t.sstats w;
  Energy.save t.energy w;
  Warden_util.Bin.w_int w t.bump

let restore_state t r =
  Store.restore t.store r;
  Llc.restore t.llc r;
  let n = Warden_util.Bin.r_int r in
  if n <> Array.length t.priv then
    Warden_util.Bin.corrupt "Memsys: core count mismatch";
  Array.iter (fun pc -> Privcache.restore pc r) t.priv;
  Protocol.restore_state (the_proto t) r;
  Pstats.restore t.pstats r;
  Sstats.restore t.sstats r;
  Energy.restore t.energy r;
  t.bump <- Warden_util.Bin.r_int r;
  (* Valid only between a successful fast access and its consumer, never
     across a quiescent point. *)
  t.fast_value <- 0L

(* The directory is reachable only through the protocol's handlers, so the
   audit walks the private caches and cross-checks with fabric peeks. *)
let check_invariants t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let ncores = Config.num_cores t.cfg in
  let holders_of blk =
    List.filter
      (fun c -> Privcache.peek t.priv.(c) ~blk <> None)
      (List.init ncores Fun.id)
  in
  let proto = the_proto t in
  (* SWMR among private copies — except for blocks in an active WARD
     region, where multiple exclusive-like copies are the design, and
     except under [`Self] protocols, where concurrent writers of disjoint
     sectors are the whole point. *)
  let self = Protocol.kind proto = `Self in
  for core = 0 to ncores - 1 do
    let pc = t.priv.(core) in
    Privcache.iter_resident pc (fun blk slot ->
        if not (Protocol.is_ward proto ~blk) then
          match Privcache.state pc slot with
          | States.P_M | States.P_E ->
              if not self then
                List.iter
                  (fun other ->
                    if other <> core then
                      err
                        "SWMR violated: block %d exclusive at core %d but held by %d"
                        blk core other)
                  (holders_of blk)
          | States.P_S ->
              (* S means clean with respect to the LLC. *)
              if Linedata.is_dirty (Privcache.data pc slot) then
                err "dirty S copy of block %d at core %d" blk core)
  done;
  (* L1 inclusion is checked inside each private cache. *)
  for core = 0 to ncores - 1 do
    match Privcache.check_inclusion t.priv.(core) with
    | Ok () -> ()
    | Error m -> err "core %d: %s" core m
  done;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "\n" (List.rev es))

