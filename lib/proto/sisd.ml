open Warden_cache
open Warden_machine
open States

(* Self-invalidation / self-downgrade (SI/SD) coherence.

   There is no directory and no snooping: nobody ever initiates a remote
   invalidation. Cores cache whatever they touch; a release fence
   self-downgrades the core's dirty lines into the LLC (sector-merged, so
   concurrent writers of disjoint bytes compose), and an acquire fence
   flushes then self-invalidates everything the core holds, so the next
   reads refetch whatever earlier releases published. Correctness is a
   DRF contract: racy programs see stale data, exactly as in the
   VIPS-style protocols this models — which is why the model checker
   drives [`Self] protocols with an acquire/release-aware oracle instead
   of the SWMR invariant.

   Multiple cores may therefore hold the same block in M simultaneously
   (writing disjoint sectors); dirty bits and sector masks in
   {!Warden_cache.Linedata} carry exactly the write-merge machinery the
   WARDen W state already relies on. *)

module P = struct
  type t = { fabric : Fabric.t; scratch : Mesi.grant }

  let name = "sisd"
  let kind = `Self
  let create fabric = { fabric; scratch = Mesi.fresh_grant () }
  let fabric t = t.fabric

  (* Misses are a plain LLC fetch: no directory lookup, no forwarding,
     nothing to invalidate. A write upgrade asks the home for nothing but
     still traverses the fabric (the fence machinery, not the write, is
     what keeps SI/SD cheap). *)
  let handle_request t ~core ~blk ~write ~holds_s =
    let f = t.fabric in
    let g = t.scratch in
    let cs = Fabric.socket_of_core f core in
    Fabric.dir_msg f ~socket:cs ~blk ~data:false;
    let to_home = Fabric.dir_leg f ~socket:cs ~blk in
    let from_home = to_home in
    if write && holds_s then begin
      Fabric.dir_msg f ~socket:cs ~blk ~data:false;
      g.Mesi.pstate <- P_M;
      g.Mesi.fill <- Mesi.no_fill;
      g.Mesi.latency <- to_home + f.Fabric.config.Config.l3_lat + from_home
    end
    else begin
      let data, where = f.Fabric.read_shared ~blk in
      let shared_lat = Fabric.shared_read_latency f where in
      Fabric.dir_msg f ~socket:cs ~blk ~data:true;
      g.Mesi.pstate <- (if write then P_M else P_S);
      g.Mesi.fill <- data;
      g.Mesi.latency <- to_home + shared_lat + from_home
    end;
    g

  (* Evictions merge dirty sectors into the LLC ([llc_merge], never
     [llc_put_full]: another core may own other sectors of the block).
     Clean copies drop silently — there is no bookkeeping to update. *)
  let handle_evict t ~core ~blk ~pstate:_ ~data =
    let f = t.fabric in
    if Linedata.is_dirty data then begin
      Fabric.dir_msg f ~socket:(Fabric.socket_of_core f core) ~blk ~data:true;
      f.Fabric.stats.Pstats.writebacks <- f.Fabric.stats.Pstats.writebacks + 1;
      f.Fabric.llc_merge ~blk data
    end

  (* Region instructions retire with no architectural effect, as on the
     MESI baseline. *)
  let region_add t ~lo:_ ~hi:_ =
    t.fabric.Fabric.stats.Pstats.ward_adds <-
      t.fabric.Fabric.stats.Pstats.ward_adds + 1;
    t.fabric.Fabric.stats.Pstats.ward_rejects <-
      t.fabric.Fabric.stats.Pstats.ward_rejects + 1;
    false

  let is_ward _ ~blk:_ = false

  let region_remove t ~lo:_ ~hi:_ =
    t.fabric.Fabric.stats.Pstats.ward_removes <-
      t.fabric.Fabric.stats.Pstats.ward_removes + 1;
    0

  (* Snapshot the core's resident blocks before touching anything: the
     per-block callbacks below mutate the cache mid-walk. *)
  let resident_of t ~core =
    let blks = ref [] in
    t.fabric.Fabric.iter_priv ~core (fun blk -> blks := blk :: !blks);
    List.sort compare !blks

  (* Acquire: flush the core's dirty sectors, then drop every copy it
     holds. Self-invalidations are bulk tag operations (one fence), so the
     latency charged is one cycle plus the per-block reconcile cost of the
     lines that actually carried data out. *)
  let acquire t ~core =
    let f = t.fabric in
    let cs = Fabric.socket_of_core f core in
    let flushed = ref 0 in
    List.iter
      (fun blk ->
        match f.Fabric.invalidate_priv ~core ~blk with
        | None -> ()
        | Some p ->
            f.Fabric.stats.Pstats.self_invs <-
              f.Fabric.stats.Pstats.self_invs + p.Fabric.levels;
            if Linedata.is_dirty p.Fabric.data then begin
              incr flushed;
              Fabric.dir_msg f ~socket:cs ~blk ~data:true;
              f.Fabric.stats.Pstats.writebacks <-
                f.Fabric.stats.Pstats.writebacks + 1;
              f.Fabric.llc_merge ~blk p.Fabric.data
            end)
      (resident_of t ~core);
    1 + (!flushed * f.Fabric.config.Config.reconcile_per_block)

  (* Release: self-downgrade — merge the core's dirty sectors into the LLC
     and keep the copies, now clean and shared. Clean lines are untouched
     (they cost nothing and stay warm). *)
  let release t ~core =
    let f = t.fabric in
    let cs = Fabric.socket_of_core f core in
    let flushed = ref 0 in
    List.iter
      (fun blk ->
        match f.Fabric.peek_priv ~core ~blk with
        | Some p when Linedata.is_dirty p.Fabric.data -> (
            match f.Fabric.downgrade_priv ~core ~blk with
            | None -> ()
            | Some p ->
                f.Fabric.stats.Pstats.self_downs <-
                  f.Fabric.stats.Pstats.self_downs + p.Fabric.levels;
                incr flushed;
                Fabric.dir_msg f ~socket:cs ~blk ~data:true;
                f.Fabric.stats.Pstats.writebacks <-
                  f.Fabric.stats.Pstats.writebacks + 1;
                f.Fabric.llc_merge ~blk p.Fabric.data;
                Linedata.clear_dirty p.Fabric.data)
        | _ -> ())
      (resident_of t ~core);
    1 + (!flushed * f.Fabric.config.Config.reconcile_per_block)

  let flush_all t =
    let f = t.fabric in
    for c = 0 to Fabric.num_cores f - 1 do
      List.iter
        (fun blk ->
          match f.Fabric.invalidate_priv ~core:c ~blk with
          | Some p when Linedata.is_dirty p.Fabric.data ->
              Fabric.dir_msg f ~socket:(Fabric.socket_of_core f c) ~blk
                ~data:true;
              f.Fabric.stats.Pstats.writebacks <-
                f.Fabric.stats.Pstats.writebacks + 1;
              f.Fabric.llc_merge ~blk p.Fabric.data
          | _ -> ())
        (resident_of t ~core:c)
    done

  (* SI/SD keeps no global bookkeeping, so the view is reconstructed from
     the caches. A sole modified holder reads as M; any other occupancy is
     "shared" — including multiple concurrent writers, which is legal
     here and which the checker's Self-aware oracle expects. *)
  let observe t ~blk =
    let f = t.fabric in
    let owners = ref [] in
    let holders = ref [] in
    for c = Fabric.num_cores f - 1 downto 0 do
      match f.Fabric.peek_priv ~core:c ~blk with
      | Some p ->
          holders := c :: !holders;
          if (match p.Fabric.state with P_M -> true | _ -> false) then
            owners := c :: !owners
      | None -> ()
    done;
    match (!owners, !holders) with
    | [], [] -> Protocol.invalid_view
    | [ o ], [ h ] when o = h ->
        { Protocol.bv_state = D_M; bv_owner = o; bv_sharers = []; bv_wmulti = false }
    | _ ->
        {
          Protocol.bv_state = D_S;
          bv_owner = -1;
          bv_sharers = !holders;
          bv_wmulti = false;
        }


  let dump t =
    let f = t.fabric in
    let b = Buffer.create 256 in
    Buffer.add_string b "protocol sisd\n";
    let blks = ref [] in
    for c = 0 to Fabric.num_cores f - 1 do
      List.iter
        (fun blk -> if not (List.mem blk !blks) then blks := blk :: !blks)
        (resident_of t ~core:c)
    done;
    List.iter
      (fun blk ->
        Buffer.add_string b
          (Format.asprintf "  blk %d: %a@." blk Protocol.pp_block_view
             (observe t ~blk)))
      (List.sort compare !blks);
    Buffer.contents b

  let copy _ ~fabric = { fabric; scratch = Mesi.fresh_grant () }

  (* All SI/SD state lives in the caches, which snapshot separately. *)
  let save_state _ _ = ()
  let restore_state _ _ = ()
end

let protocol fabric = Protocol.Packed ((module P), P.create fabric)
