open Warden_mem
open Warden_cache
open Warden_machine
open Warden_proto
module Obs = Warden_obs.Obs
module Oev = Warden_obs.Events

(* Commit-order trace sink (DESIGN.md §15). A flat callback — (kind,
   thread, addr, size, value) — invoked at the point each access commits
   its memory-system transition, on whichever path served it (scheduled
   or inline). Unlike the initiation-order access hook that
   [Warden_trace.Oracle] uses, this stream is in commit order, so feeding it
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
      (* [Privcache.blank] for a core until its first fill; see [owned] *)
  mutable proto : Protocol.t option;
  mutable self_sync : bool;
      (* cached [Protocol.kind = `Self]: such protocols take their
         coherence from the runtime's acquire/release fences, and their
         atomics must be pinned to the coherent scheduled path *)
  mutable bump : int;
  word : Bytes.t; (* 8 bytes: the wrappers' loaded value *)
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

(* The fabric is the protocol's only view of the caches; [copy] rebuilds
   it over the copied structures. *)
let fabric_of t =
  let cfg = t.cfg and llc = t.llc in
  {
    Fabric.config = cfg;
    energy = t.energy;
    stats = t.pstats;
    obs = t.obs;
    peek_priv = (fun ~core ~blk -> Privcache.peek t.priv.(core) ~blk);
    invalidate_priv = (fun ~core ~blk -> Privcache.invalidate t.priv.(core) ~blk);
    downgrade_priv = (fun ~core ~blk -> Privcache.downgrade t.priv.(core) ~blk);
    iter_priv =
      (fun ~core f -> Privcache.iter_resident t.priv.(core) (fun blk _ -> f blk));
    read_shared =
      (fun ~blk -> Llc.read llc ~socket:(Config.home_socket cfg blk) ~blk);
    llc_merge =
      (fun ~blk src -> Llc.merge llc ~socket:(Config.home_socket cfg blk) ~blk src);
    llc_put_full =
      (fun ~blk src ->
        Llc.put_full llc ~socket:(Config.home_socket cfg blk) ~blk src);
  }

(* A private hierarchy's victims go to the protocol's writeback path. *)
let evict_to t core ~blk pstate data =
  Protocol.handle_evict (the_proto t) ~core ~blk ~pstate ~data

(* A core's hierarchy is allocated at its first fill. Until then the core
   shares [Privcache.blank], which nothing mutates: on an empty hierarchy
   every operation but [fill] is read-only. So copies share it too. *)
let owned t core =
  let pc = t.priv.(core) in
  if pc != Privcache.blank then pc
  else begin
    let pc = Privcache.create t.cfg ~evict:(evict_to t core) in
    t.priv.(core) <- pc;
    pc
  end

(* An LLC victim written back to memory: a DRAM write, counted and
   charged like the DRAM read that fetched it
   ([Fabric.shared_read_latency]). *)
let dram_write pstats energy () =
  pstats.Pstats.dram_writes <- pstats.Pstats.dram_writes + 1;
  Energy.dram_access energy

let create_with cfg ~mk =
  if cfg.Config.sim_domains <> 1 then
    invalid_arg
      "Memsys.create: sim_domains must be 1; use --jobs for host parallelism";
  let store = Store.create () in
  let obs = Obs.create cfg in
  (* A sweep builds one memory system per run: keep the malloc heap the
     last one freed, so this one does not fault it back in (DESIGN.md §10). *)
  ignore (Warden_util.Host_heap.retain () : bool);
  let energy = Energy.create () and pstats = Pstats.create () in
  let t =
    {
      cfg;
      energy;
      pstats;
      sstats = Sstats.create ~threads:(Config.num_threads cfg);
      obs;
      obs_on = Obs.enabled obs;
      store;
      llc = Llc.create cfg store ~on_dram_write:(dram_write pstats energy);
      priv = Array.make (Config.num_cores cfg) Privcache.blank;
      proto = None;
      self_sync = false;
      word = Bytes.create 8;
      (* Leave page zero unmapped so address 0 can act as a null. *)
      bump = 1 lsl 16;
      sink = no_sink;
      sink_on = false;
    }
  in
  t.proto <- Some (mk (fabric_of t));
  t.self_sync <- Protocol.kind (the_proto t) = `Self;
  t

let protocol_of = function
  | `Mesi -> Protocol.mesi
  | `Warden -> Warden_core.Warden.protocol
  | `Msi_bus -> Msi_bus.protocol
  | `Sisd -> Sisd.protocol

let create cfg ~proto = create_with cfg ~mk:(protocol_of proto)

(* The copy shares the configuration and the event recorder, and starts
   with no trace sink. *)
let copy t =
  let store = Store.copy t.store in
  let energy = Energy.copy t.energy and pstats = Pstats.copy t.pstats in
  let c =
    {
      t with
      energy;
      pstats;
      sstats = Sstats.copy t.sstats;
      store;
      llc = Llc.copy t.llc store ~on_dram_write:(dram_write pstats energy);
      priv = [||];
      word = Bytes.create 8;
      sink = no_sink;
      sink_on = false;
    }
  in
  c.priv <-
    Array.mapi
      (fun core pc ->
        if pc == Privcache.blank then pc
        else Privcache.copy pc ~evict:(evict_to c core))
      t.priv;
  c.proto <- Some (Protocol.copy (the_proto t) ~fabric:(fabric_of c));
  c

(* The miss half of an access, after the hit prefix failed: upgrade an S
   copy for a write, or fill the line. Returns its slot in the core's
   private cache and the access latency up to the point the data is
   available to the core. *)
let access_line t ~thread ~blk ~write =
  let core = Config.core_of_thread t.cfg thread in
  let ss = t.sstats in
  Energy.l1_access t.energy;
  ss.Sstats.priv_misses <- ss.Sstats.priv_misses + 1;
  Energy.l2_access t.energy;
  let pc = t.priv.(core) in
  let held = Privcache.lookup pc ~blk in
  let holds_s = held >= 0 in
  let g = Protocol.handle_request (the_proto t) ~core ~blk ~write ~holds_s in
  let slot =
    if holds_s then begin
      (* A WARD grant may re-fill even on upgrade paths; accept it. *)
      if Mesi.has_fill g then
        Linedata.fill_from (Privcache.data pc held) g.Mesi.fill;
      Privcache.set_state pc held g.Mesi.pstate;
      held
    end
    else begin
      assert (Mesi.has_fill g);
      Privcache.fill (owned t core) ~blk g.Mesi.pstate g.Mesi.fill
    end
  in
  let lat = t.cfg.Config.l2_lat + g.Mesi.latency in
  if t.obs_on then
    Obs.access t.obs
      ~cls:(if holds_s then Oev.upgrade else Oev.miss)
      ~core ~blk ~lat;
  (slot, lat)

let count_load t = t.sstats.Sstats.loads <- t.sstats.Sstats.loads + 1
let count_store t = t.sstats.Sstats.stores <- t.sstats.Sstats.stores + 1
let count_rmw t = t.sstats.Sstats.rmws <- t.sstats.Sstats.rmws + 1

let priv_of t thread = t.priv.(Config.core_of_thread t.cfg thread)

(* --- the access transitions ---------------------------------------------- *)

(* Each access is one transition: a hit prefix, which commits a
   permission-sufficient private-cache hit in place, followed by the miss
   path, which takes an upgrade or a miss through [access_line] and the
   protocol. The prefix ([Privcache.fast_hit]) commits nothing on an
   upgrade or a miss, so the miss path never double-counts.

   The prefix is inlined into every caller — the engine's inline and
   scheduled paths, trace replay, the wrappers below — and allocates
   nothing: a loaded value goes straight into the caller's 8-byte
   buffer, and a stored value stays unboxed down to the line's bytes.
   The miss path is out of line; it is where a value is boxed, if
   anywhere. *)

(* The serving level's latency, with its events and energy. *)
let[@inline] hit_accounting t ~core ~blk l1 =
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

(* The data halves of an access, shared by hits and misses: read or
   write the line at [slot] of hierarchy [pc], report the access to the
   sink, and hand a loaded value over in [into]. *)

let[@inline] load_line t ~thread pc slot addr ~size into =
  let v = Privcache.load pc slot ~off:(Addr.offset_in_block addr) ~size in
  Bytes.set_int64_le into 0 v;
  if t.sink_on then t.sink k_load thread addr size v

let[@inline] store_line t ~thread pc slot addr ~size v =
  Privcache.write pc slot ~off:(Addr.offset_in_block addr) ~size v;
  if t.sink_on then t.sink k_store thread addr size v

(* [into] gets the old value; the sink, the new one. *)
let rmw_line t ~thread pc slot addr ~size f into =
  let off = Addr.offset_in_block addr in
  let old = Privcache.load pc slot ~off ~size in
  let nv = f old in
  Privcache.write pc slot ~off ~size nv;
  if t.sink_on then t.sink k_rmw thread addr size nv;
  Bytes.set_int64_le into 0 old

(* The hit prefixes: commit a permission-sufficient private hit and
   return its latency, or return -1 having changed nothing. *)

let[@inline] load_prefix t ~thread addr ~size into =
  let core = Config.core_of_thread t.cfg thread in
  let pc = t.priv.(core) in
  let blk = Addr.block_of addr in
  let slot = Privcache.fast_hit pc ~blk ~write:false in
  if slot < 0 then -1
  else begin
    count_load t;
    load_line t ~thread pc slot addr ~size into;
    hit_accounting t ~core ~blk (Privcache.last_l1 pc)
  end

let[@inline] store_prefix t ~thread addr ~size v =
  let core = Config.core_of_thread t.cfg thread in
  let pc = t.priv.(core) in
  let blk = Addr.block_of addr in
  let slot = Privcache.fast_hit pc ~blk ~write:true in
  if slot < 0 then -1
  else begin
    count_store t;
    store_line t ~thread pc slot addr ~size v;
    hit_accounting t ~core ~blk (Privcache.last_l1 pc)
  end

let rmw_prefix t ~thread addr ~size f into =
  let core = Config.core_of_thread t.cfg thread in
  let pc = t.priv.(core) in
  let blk = Addr.block_of addr in
  let slot = Privcache.fast_hit pc ~blk ~write:true in
  if slot < 0 then -1
  else begin
    count_rmw t;
    rmw_line t ~thread pc slot addr ~size f into;
    hit_accounting t ~core ~blk (Privcache.last_l1 pc)
  end

(* The miss paths: [access_line] takes the upgrade or the miss. *)

let load_miss t ~thread addr ~size into =
  count_load t;
  let slot, lat = access_line t ~thread ~blk:(Addr.block_of addr) ~write:false in
  load_line t ~thread (priv_of t thread) slot addr ~size into;
  lat

let store_miss t ~thread addr ~size v =
  count_store t;
  let slot, lat = access_line t ~thread ~blk:(Addr.block_of addr) ~write:true in
  store_line t ~thread (priv_of t thread) slot addr ~size v;
  lat

let rmw_miss t ~thread addr ~size f into =
  count_rmw t;
  let slot, lat = access_line t ~thread ~blk:(Addr.block_of addr) ~write:true in
  rmw_line t ~thread (priv_of t thread) slot addr ~size f into;
  lat

(* Atomics under a self-invalidation protocol. The plain access paths may
   serve stale bytes by design, but an RMW is a synchronization primitive
   (locks, join counters): it must read the globally latest value and
   publish its result. Model the standard SI/SD answer — perform atomics
   at the shared level: drop any local copy (flushing its dirty sectors),
   miss-fill the current bytes through the ordinary request path, apply
   the operation, and write the result straight back through, keeping a
   clean S copy. *)
let rmw_coherent t ~thread addr ~size f into =
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
  let pc = t.priv.(core) in (* the miss may have allocated it *)
  rmw_line t ~thread pc slot addr ~size f into;
  (* Write-through of the result; the copy left behind is clean S. *)
  Fabric.dir_msg fab ~socket:cs ~blk ~data:true;
  let line = Privcache.data pc slot in
  fab.Fabric.llc_merge ~blk line;
  Linedata.clear_dirty line;
  Privcache.set_state pc slot States.P_S;
  t.pstats.Pstats.self_downs <- t.pstats.Pstats.self_downs + 1;
  lat

let[@inline] access_load t ~thread addr ~size into =
  let lat = load_prefix t ~thread addr ~size into in
  if lat >= 0 then lat else load_miss t ~thread addr ~size into

let[@inline] access_store t ~thread addr ~size v =
  let lat = store_prefix t ~thread addr ~size v in
  if lat >= 0 then lat else store_miss t ~thread addr ~size v

(* Under a [`Self] protocol every RMW takes the coherent path. *)
let access_rmw t ~thread addr ~size f into =
  if t.self_sync then rmw_coherent t ~thread addr ~size f into
  else
    let lat = rmw_prefix t ~thread addr ~size f into in
    if lat >= 0 then lat else rmw_miss t ~thread addr ~size f into

(* --- wrappers --------------------------------------------------------------- *)

(* The value-returning forms, and the hit prefixes alone (for callers
   that time the two halves apart). *)

let load t ~thread addr ~size =
  let lat = access_load t ~thread addr ~size t.word in
  (Bytes.get_int64_le t.word 0, lat)

let store = access_store

let rmw t ~thread addr ~size f =
  let lat = access_rmw t ~thread addr ~size f t.word in
  (Bytes.get_int64_le t.word 0, lat)

let try_fast_load t ~thread addr ~size = load_prefix t ~thread addr ~size t.word
let try_fast_store = store_prefix

let try_fast_rmw t ~thread addr ~size f =
  if t.self_sync then -1 (* atomics take the coherent path *)
  else rmw_prefix t ~thread addr ~size f t.word

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

let evict t ~thread ~blk =
  Privcache.evict (priv_of t thread) ~blk

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
   the flat structures below. A core whose hierarchy was never allocated
   is one word. *)
let save_state t w =
  let module B = Warden_util.Bin in
  Store.save t.store w;
  Llc.save t.llc w;
  B.w_int w (Array.length t.priv);
  Array.iter
    (fun pc ->
      if pc == Privcache.blank then B.w_int w 0
      else begin
        B.w_int w 1;
        Privcache.save pc w
      end)
    t.priv;
  Protocol.save_state (the_proto t) w;
  Pstats.save t.pstats w;
  Sstats.save t.sstats w;
  Energy.save t.energy w;
  B.w_int w t.bump

let restore_into t r =
  let module B = Warden_util.Bin in
  Store.restore t.store r;
  Llc.restore t.llc r;
  let n = B.r_int r in
  if n <> Array.length t.priv then B.corrupt "Memsys: core count mismatch";
  for core = 0 to n - 1 do
    t.priv.(core) <-
      (match B.r_int r with
      | 0 -> Privcache.blank
      | 1 -> Privcache.restore t.cfg ~evict:(evict_to t core) r
      | _ -> B.corrupt "Memsys: bad hierarchy flag")
  done;
  Protocol.restore_state (the_proto t) r;
  Pstats.restore t.pstats r;
  Sstats.restore t.sstats r;
  Energy.restore t.energy r;
  t.bump <- B.r_int r

(* A dry run on a copy validates the whole image first, so a malformed
   one leaves [t] as it was. *)
let restore_state t r =
  restore_into (copy t) (Warden_util.Bin.fork r);
  restore_into t r

(* The directory is reachable only through the protocol's handlers, so the
   audit walks the private caches. It reads them with [iter_resident],
   which changes no recency. *)
let check_invariants t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let proto = the_proto t in
  let holders = Hashtbl.create 64 in (* blk -> (core, exclusive) *)
  Array.iteri
    (fun core pc ->
      (* L1 inclusion is checked inside each private cache. *)
      (match Privcache.check_inclusion pc with
      | Ok () -> ()
      | Error m -> err "core %d: %s" core m);
      Privcache.iter_resident pc (fun blk slot ->
          let excl = Privcache.state pc slot <> States.P_S in
          (* S means clean with respect to the LLC. *)
          if (not excl) && Linedata.is_dirty (Privcache.data pc slot) then
            err "dirty S copy of block %d at core %d" blk core;
          Hashtbl.add holders blk (core, excl)))
    t.priv;
  (* SWMR among private copies — except for blocks in an active WARD
     region, where multiple exclusive-like copies are the design, and
     except under [`Self] protocols, where concurrent writers of disjoint
     sectors are the whole point. *)
  let self = Protocol.kind proto = `Self in
  Hashtbl.iter
    (fun blk (core, excl) ->
      if excl && (not self) && not (Protocol.is_ward proto ~blk) then
        List.iter
          (fun (other, _) ->
            if other <> core then
              err "SWMR violated: block %d exclusive at core %d but held by %d"
                blk core other)
          (Hashtbl.find_all holders blk))
    holders;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "\n" (List.rev es))
