open Warden_mem
open Warden_cache
open Warden_machine
open Warden_proto
open States
module Obs = Warden_obs.Obs
module Oev = Warden_obs.Events

(* The W-grant index: for every 32-block chunk ([blk lsr chunk_bits])
   that holds a block in D_W, a mask of those blocks, so region removal
   visits the blocks it must reconcile instead of every block of its
   range. A bit is set when a block enters W and cleared when it leaves;
   a chunk whose mask empties is dropped. It is derived from the
   directory: copied by [copy], rebuilt by [restore_state], never saved. *)
module Windex = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash c = c
end)

let chunk_bits = 5
let chunk_mask = (1 lsl chunk_bits) - 1

let index_add w blk =
  let c = blk lsr chunk_bits and bit = 1 lsl (blk land chunk_mask) in
  match Windex.find w c with
  | m -> Windex.replace w c (m lor bit)
  | exception Not_found -> Windex.add w c bit

module P = struct
  type t = {
    fabric : Fabric.t;
    dir : Dirstate.t;
    regions : Regions.t;
    windex : int Windex.t;
    scratch : Mesi.grant;
  }

  let name = "warden"
  let kind = `Directory

  let create fabric =
    {
      fabric;
      dir = Dirstate.of_config fabric.Fabric.config;
      regions =
        Regions.create
          ~capacity:fabric.Fabric.config.Config.ward_region_capacity;
      windex = Windex.create 64;
      scratch = Mesi.fresh_grant ();
    }

  let fabric t = t.fabric
  let regions t = t.regions

  (* Serve a request for a block inside an active WARD region: furnish an
     exclusive-like copy from the shared cache and leave every other copy
     untouched (Fig. 5's GetM-or-GetS (WARD region) transitions). *)
  let ward_request t ~core ~blk ~write ~holds_s =
    let f = t.fabric in
    let dir = t.dir in
    let e = Dirstate.entry dir blk in
    let cs = Fabric.socket_of_core f core in
    Fabric.dir_access f;
    Fabric.dir_msg f ~socket:cs ~blk ~data:false;
    f.Fabric.stats.Pstats.ward_grants <- f.Fabric.stats.Pstats.ward_grants + 1;
    (* A previous E/M owner silently becomes one of the W copies. *)
    (match Dirstate.state dir e with
    | D_E | D_M ->
        let o = Dirstate.owner dir e in
        if o >= 0 then Dirstate.sharer_add dir e o;
        index_add t.windex blk
    | D_I | D_S -> index_add t.windex blk
    | D_W -> ());
    Dirstate.set_state dir e D_W;
    Dirstate.set_owner dir e (-1);
    Dirstate.sharer_add dir e core;
    if Dirstate.sharer_count dir e > 1 then Dirstate.set_w_multi dir e true;
    let to_home = Fabric.dir_leg f ~socket:cs ~blk in
    let from_home = to_home in
    let g = t.scratch in
    if holds_s then begin
      (* Upgrade of a copy already held: permission only, no data. *)
      Fabric.dir_msg f ~socket:cs ~blk ~data:false;
      g.Mesi.pstate <- grant_pstate ~write;
      g.Mesi.fill <- Mesi.no_fill;
      g.Mesi.latency <- to_home + f.Fabric.config.Config.l3_lat + from_home
    end
    else begin
      let data, where = f.Fabric.read_shared ~blk in
      let shared_lat = Fabric.shared_read_latency f where in
      Fabric.dir_msg f ~socket:cs ~blk ~data:true;
      g.Mesi.pstate <- grant_pstate ~write;
      g.Mesi.fill <- data;
      g.Mesi.latency <- to_home + shared_lat + from_home
    end;
    Obs.event f.Fabric.obs ~code:Oev.ward_grant ~core ~blk ~arg:g.Mesi.latency;
    g

  let handle_request t ~core ~blk ~write ~holds_s =
    Energy.cam_lookup t.fabric.Fabric.energy;
    if Regions.block_in t.regions blk then
      ward_request t ~core ~blk ~write ~holds_s
    else
      Mesi.handle_request t.fabric t.dir t.scratch ~core ~blk ~write ~holds_s

  let handle_evict t ~core ~blk ~pstate ~data =
    let dir = t.dir in
    let e = Dirstate.entry dir blk in
    if Dirstate.state dir e = D_W then begin
      (* Sectored writeback: merge this copy's written bytes into the LLC
         ("reconciling blocks on eviction overlaps with computation"). *)
      let f = t.fabric in
      let cs = Fabric.socket_of_core f core in
      Fabric.dir_access f;
      let dirty = Linedata.is_dirty data in
      Fabric.dir_msg f ~socket:cs ~blk ~data:dirty;
      if dirty then begin
        f.Fabric.llc_merge ~blk data;
        f.Fabric.stats.Pstats.writebacks <- f.Fabric.stats.Pstats.writebacks + 1
      end;
      Dirstate.sharer_remove dir e core
    end
    else Mesi.handle_evict t.fabric t.dir ~core ~blk ~pstate ~data

  let region_add t ~lo ~hi =
    let stats = t.fabric.Fabric.stats in
    stats.Pstats.ward_adds <- stats.Pstats.ward_adds + 1;
    if not (Regions.add t.regions ~lo ~hi) then begin
      stats.Pstats.ward_rejects <- stats.Pstats.ward_rejects + 1;
      false
    end
    else begin
      (* Fold any live MESI copies of these blocks into the LLC so that
         stale data cannot later win a reconciliation merge. The
         runtime's regions cover fresh pages, which lie above every block
         the directory has seen: such an add probes nothing. *)
      let dir = t.dir in
      let first = Addr.block_of lo in
      if first <= Dirstate.top dir then
        for blk = first to Addr.block_of (hi - 1) do
          let e = Dirstate.find dir blk in
          if
            e <> Dirstate.no_slot
            && Dirstate.state dir e <> D_I
            && Dirstate.state dir e <> D_W
          then begin
            let holders = Dirstate.holders dir e in
            stats.Pstats.recon_flushes <-
              stats.Pstats.recon_flushes + List.length holders;
            List.iter
              (fun c ->
                Obs.event t.fabric.Fabric.obs ~code:Oev.recon ~core:c ~blk
                  ~arg:1)
              holders;
            Mesi.flush_entry t.fabric t.dir e
          end
        done;
      true
    end

  let is_ward t ~blk = Regions.block_in t.regions blk

  (* Eagerly coherent outside W regions, reconciled inside them: the
     runtime's acquire/release fences need no architectural effect. *)
  let acquire _ ~core:_ = 0
  let release _ ~core:_ = 0

  (* Reconciliation of one W block at region removal (§5.2). Returns true
     if the block required a flush (and therefore costs latency). *)
  let reconcile_block t blk (e : Dirstate.slot) =
    let f = t.fabric in
    let dir = t.dir in
    let stats = f.Fabric.stats in
    stats.Pstats.recon_blocks <- stats.Pstats.recon_blocks + 1;
    match Dirstate.holders dir e with
    | [] ->
        Dirstate.set_invalid dir e;
        false
    | [ s ] when (not (Dirstate.w_multi dir e))
                 && f.Fabric.config.Config.recon_inplace_sole -> (
        (* No sharing, §5.2 literal variant (ablation): convert the sole
           copy to E/M in place. This forfeits the §5.3 proactive flush —
           later remote readers still downgrade the holder. *)
        match f.Fabric.peek_priv ~core:s ~blk with
        | None ->
            Dirstate.set_invalid dir e;
            false
        | Some p ->
            Dirstate.set_state dir e
              (if Linedata.is_dirty p.Fabric.data then D_M else D_E);
            Dirstate.set_owner dir e s;
            Dirstate.set_w_multi dir e false;
            Dirstate.sharers_clear dir e;
            false)
    | [ s ] when not (Dirstate.w_multi dir e) -> (
        (* No sharing (default): write the copy's dirty sectors back and
           retain it as a clean shared copy. Remote consumers are then
           served by the LLC with no downgrade (the §5.3 benefit), while
           the holder keeps hitting in its own cache — flushing the sole
           holder outright would make it refetch its own fresh data. *)
        match f.Fabric.downgrade_priv ~core:s ~blk with
        | None ->
            Dirstate.set_invalid dir e;
            false
        | Some p ->
            let dirty = Linedata.is_dirty p.Fabric.data in
            if dirty then begin
              stats.Pstats.recon_flushes <-
                stats.Pstats.recon_flushes + p.Fabric.levels;
              Obs.event f.Fabric.obs ~code:Oev.recon ~core:s ~blk
                ~arg:p.Fabric.levels;
              (* One data message per dirty block; the flush command itself
                 is per-region, not per-block. *)
              let ss = Fabric.socket_of_core f s in
              Fabric.dir_msg f ~socket:ss ~blk ~data:true;
              f.Fabric.llc_merge ~blk p.Fabric.data;
              Linedata.clear_dirty p.Fabric.data
            end;
            Dirstate.set_state dir e D_S;
            Dirstate.set_owner dir e (-1);
            Dirstate.set_w_multi dir e false;
            Dirstate.sharers_clear dir e;
            Dirstate.sharer_add dir e s;
            dirty)
    | holders ->
        (* False or true sharing: flush every copy and merge dirty sectors
           in directory processing order (ascending core id); the WARD
           property makes any order correct. *)
        List.iter
          (fun s ->
            match f.Fabric.invalidate_priv ~core:s ~blk with
            | None -> ()
            | Some p ->
                stats.Pstats.recon_flushes <-
                  stats.Pstats.recon_flushes + p.Fabric.levels;
                Obs.event f.Fabric.obs ~code:Oev.recon ~core:s ~blk
                  ~arg:p.Fabric.levels;
                let ss = Fabric.socket_of_core f s in
                let dirty = Linedata.is_dirty p.Fabric.data in
                if dirty then begin
                  Fabric.dir_msg f ~socket:ss ~blk ~data:true;
                  f.Fabric.llc_merge ~blk p.Fabric.data
                end)
          holders;
        Dirstate.set_invalid dir e;
        true

  (* Reconcile the W blocks of [first, last] that no live region still
     covers, in ascending block order: the index's chunks in order, each
     mask's bits in order. *)
  let reconcile_range t ~first ~last =
    let flushed = ref 0 in
    let dir = t.dir in
    for c = first lsr chunk_bits to last lsr chunk_bits do
      match Windex.find t.windex c with
      | exception Not_found -> ()
      | m ->
          let base = c lsl chunk_bits in
          let left = ref m in
          for b = max 0 (first - base) to min chunk_mask (last - base) do
            let blk = base + b in
            (* A block of two overlapping regions stays W until the last
               one is removed. *)
            if m land (1 lsl b) <> 0 && not (Regions.block_in t.regions blk)
            then begin
              let e = Dirstate.find dir blk in
              if
                e <> Dirstate.no_slot
                && Dirstate.state dir e = D_W
                && reconcile_block t blk e
              then incr flushed;
              left := !left land lnot (1 lsl b)
            end
          done;
          if !left = 0 then Windex.remove t.windex c
          else if !left <> m then Windex.replace t.windex c !left
    done;
    !flushed

  let region_remove t ~lo ~hi =
    let stats = t.fabric.Fabric.stats in
    stats.Pstats.ward_removes <- stats.Pstats.ward_removes + 1;
    if not (Regions.remove t.regions ~lo ~hi) then 0
    else
      reconcile_range t ~first:(Addr.block_of lo) ~last:(Addr.block_of (hi - 1))
      * t.fabric.Fabric.config.Config.reconcile_per_block

  let flush_all t =
    let f = t.fabric in
    let dir = t.dir in
    Dirstate.iter dir (fun blk e ->
        if Dirstate.state dir e = D_W then begin
          List.iter
            (fun s ->
              match f.Fabric.invalidate_priv ~core:s ~blk with
              | Some p when Linedata.is_dirty p.Fabric.data ->
                  Fabric.dir_msg f ~socket:(Fabric.socket_of_core f s) ~blk
                    ~data:true;
                  f.Fabric.stats.Pstats.writebacks <-
                    f.Fabric.stats.Pstats.writebacks + 1;
                  f.Fabric.llc_merge ~blk p.Fabric.data
              | _ -> ())
            (Dirstate.holders dir e);
          Dirstate.set_invalid dir e
        end
        else Mesi.flush_entry f dir e);
    Windex.reset t.windex

  let observe t ~blk = Protocol.view_of_dir t.dir ~blk

  let dump t =
    let b = Buffer.create 256 in
    Buffer.add_string b "protocol warden\n";
    Buffer.add_string b (Protocol.dump_dir t.dir);
    let ranges = ref [] in
    Regions.iter t.regions (fun ~lo ~hi -> ranges := (lo, hi) :: !ranges);
    List.iter
      (fun (lo, hi) ->
        Buffer.add_string b (Printf.sprintf "  region [0x%x,0x%x)\n" lo hi))
      (List.sort compare !ranges);
    Buffer.contents b

  let copy t ~fabric =
    {
      fabric;
      dir = Dirstate.copy t.dir;
      regions = Regions.copy t.regions;
      windex = Windex.copy t.windex;
      scratch = Mesi.fresh_grant ();
    }

  (* WARDen's protocol state is the directory plus the region CAM; the
     W-grant index is rebuilt from the directory. *)
  let save_state t w =
    Dirstate.save t.dir w;
    Regions.save t.regions w

  let restore_state t r =
    Dirstate.restore t.dir r;
    Regions.restore t.regions r;
    Windex.reset t.windex;
    Dirstate.iter t.dir (fun blk e ->
        if Dirstate.state t.dir e = D_W then index_add t.windex blk)
end

let protocol fabric = Protocol.Packed ((module P), P.create fabric)
