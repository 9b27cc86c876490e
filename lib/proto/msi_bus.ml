open Warden_cache
open States

(* Snooping shared-bus MSI.

   There is no directory: every request arbitrates for the one bus
   ({!Bus}), broadcasts its command, and discovers copies by snooping the
   other private caches through the fabric probes. States are S and M only
   (no E — a bus protocol cannot grant silent-upgrade exclusivity without
   an owner tracker), a dirty owner flushes to the LLC the moment it is
   snooped (flush-on-snoop, on reads and writes alike, so the LLC carries
   exactly the bytes a directory MESI would — the lockstep differential in
   warden.check leans on that), and the snooped owner supplies the block
   cache-to-cache in the same bus transfer that performs the flush.

   The request/grant shape is the one {!Protocol.S} prescribes; what
   changed to admit this protocol is the fabric: probes expose the copy's
   state (ownership is discovered, not recorded) and the bus's arbitration
   and occupancy cycles flow into {!Pstats}/{!Energy} through
   {!Fabric.bus_txn} exactly as hop latency does on switched fabrics. *)

module P = struct
  type t = { fabric : Fabric.t; bus : Bus.t; scratch : Mesi.grant }

  let name = "msi-bus"
  let kind = `Snoop

  let create fabric =
    {
      fabric;
      bus = Bus.create ~cores:(Fabric.num_cores fabric);
      scratch = Mesi.fresh_grant ();
    }

  let fabric t = t.fabric

  (* Broadcast one command: every other cache snoops its tags. Returns the
     M owner (if any) discovered by the snoop — SWMR means at most one. *)
  let snoop_owner t ~core ~blk =
    let f = t.fabric in
    let n = Fabric.num_cores f in
    Fabric.bus_msg f ~data:false;
    Fabric.snoops f (n - 1);
    let owner = ref (-1) in
    for c = 0 to n - 1 do
      if c <> core && !owner < 0 then
        match f.Fabric.peek_priv ~core:c ~blk with
        | Some p when (match p.Fabric.state with P_M -> true | _ -> false) ->
            owner := c
        | _ -> ()
    done;
    !owner

  let handle_request t ~core ~blk ~write ~holds_s =
    let f = t.fabric in
    let g = t.scratch in
    let arb = Bus.acquire t.bus ~core in
    let owner = snoop_owner t ~core ~blk in
    if write && holds_s then begin
      (* BusUpgr: permission only. The broadcast invalidates every other
         S copy in place; no data moves. *)
      assert (owner < 0);
      for c = 0 to Fabric.num_cores f - 1 do
        if c <> core then
          ignore
            (Mesi.invalidate_counted f ~core:c ~blk
               (f.Fabric.invalidate_priv ~core:c ~blk)
              : Fabric.probe option)
      done;
      Fabric.bus_txn f ~arb ~busy:Bus.ctl_cycles;
      g.Mesi.pstate <- P_M;
      g.Mesi.fill <- Mesi.no_fill;
      g.Mesi.latency <- arb + Bus.ctl_cycles
    end
    else begin
      let busy = Bus.ctl_cycles + Bus.data_cycles in
      Fabric.bus_txn f ~arb ~busy;
      if owner >= 0 then begin
        (* Flush-on-snoop: demote or evict the owner, merge its dirty
           bytes into the LLC, and fill cache-to-cache. *)
        let probe =
          if write then
            Mesi.invalidate_counted f ~core:owner ~blk
              (f.Fabric.invalidate_priv ~core:owner ~blk)
          else
            Mesi.downgrade_counted f ~core:owner ~blk
              (f.Fabric.downgrade_priv ~core:owner ~blk)
        in
        let p = match probe with Some p -> p | None -> assert false in
        Fabric.bus_msg f ~data:true;
        f.Fabric.stats.Pstats.c2c_transfers <-
          f.Fabric.stats.Pstats.c2c_transfers + 1;
        if Linedata.is_dirty p.Fabric.data then begin
          if not write then
            f.Fabric.stats.Pstats.writebacks <-
              f.Fabric.stats.Pstats.writebacks + 1;
          f.Fabric.llc_merge ~blk p.Fabric.data;
          Linedata.clear_dirty p.Fabric.data
        end;
        g.Mesi.pstate <- (if write then P_M else P_S);
        g.Mesi.fill <- p.Fabric.data;
        g.Mesi.latency <- arb + busy + f.Fabric.config.Warden_machine.Config.l2_lat
      end
      else begin
        (* No owner: on a write the broadcast invalidates the S copies in
           place; either way the LLC (or memory behind it) supplies. *)
        if write then
          for c = 0 to Fabric.num_cores f - 1 do
            if c <> core then
              ignore
                (Mesi.invalidate_counted f ~core:c ~blk
                   (f.Fabric.invalidate_priv ~core:c ~blk)
                  : Fabric.probe option)
          done;
        let data, where = f.Fabric.read_shared ~blk in
        let mem_lat = Fabric.shared_read_latency f where in
        Fabric.bus_msg f ~data:true;
        g.Mesi.pstate <- (if write then P_M else P_S);
        g.Mesi.fill <- data;
        g.Mesi.latency <- arb + busy + mem_lat
      end
    end;
    g

  let handle_evict t ~core ~blk ~pstate ~data =
    let f = t.fabric in
    match pstate with
    | P_M ->
        (* Dirty writeback takes a bus transaction of its own. *)
        let arb = Bus.acquire t.bus ~core in
        Fabric.bus_txn f ~arb ~busy:(Bus.ctl_cycles + Bus.data_cycles);
        Fabric.bus_msg f ~data:true;
        f.Fabric.stats.Pstats.writebacks <-
          f.Fabric.stats.Pstats.writebacks + 1;
        f.Fabric.llc_put_full ~blk data
    | P_S ->
        (* Silent drop: no directory to tell, and the snoop finds truth. *)
        ()
    | P_E -> assert false (* MSI never grants E *)

  (* The region instructions retire with no architectural effect, exactly
     as on the MESI baseline (the attempt is still counted). *)
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

  let acquire _ ~core:_ = 0
  let release _ ~core:_ = 0

  let resident_blocks t =
    let f = t.fabric in
    let blks = ref [] in
    for c = 0 to Fabric.num_cores f - 1 do
      f.Fabric.iter_priv ~core:c (fun blk ->
          if not (List.mem blk !blks) then blks := blk :: !blks)
    done;
    List.sort compare !blks

  (* End-of-run drain: invalidate every copy, writing M lines back in
     full, as the directory protocols do (the writeback is traffic the
     program owes no matter when it drains). *)
  let flush_all t =
    let f = t.fabric in
    List.iter
      (fun blk ->
        for c = 0 to Fabric.num_cores f - 1 do
          match f.Fabric.invalidate_priv ~core:c ~blk with
          | None -> ()
          | Some p ->
              if
                (match p.Fabric.state with P_M -> true | _ -> false)
                || Linedata.is_dirty p.Fabric.data
              then begin
                Fabric.bus_msg f ~data:true;
                f.Fabric.stats.Pstats.writebacks <-
                  f.Fabric.stats.Pstats.writebacks + 1;
                f.Fabric.llc_put_full ~blk p.Fabric.data
              end
        done)
      (resident_blocks t)

  (* A snooping protocol has no bookkeeping: the caches are the truth, so
     the view is what a snoop would discover. *)
  let observe t ~blk =
    let f = t.fabric in
    let owner = ref (-1) in
    let sharers = ref [] in
    for c = Fabric.num_cores f - 1 downto 0 do
      match f.Fabric.peek_priv ~core:c ~blk with
      | Some p -> (
          match p.Fabric.state with
          | P_M | P_E -> owner := c
          | P_S -> sharers := c :: !sharers)
      | None -> ()
    done;
    if !owner >= 0 then
      {
        Protocol.bv_state = D_M;
        bv_owner = !owner;
        bv_sharers = [];
        bv_wmulti = false;
      }
    else if !sharers <> [] then
      {
        Protocol.bv_state = D_S;
        bv_owner = -1;
        bv_sharers = !sharers;
        bv_wmulti = false;
      }
    else Protocol.invalid_view


  let dump t =
    let b = Buffer.create 256 in
    Buffer.add_string b "protocol msi-bus\n";
    List.iter
      (fun blk ->
        Buffer.add_string b
          (Format.asprintf "  blk %d: %a@." blk Protocol.pp_block_view
             (observe t ~blk)))
      (resident_blocks t);
    Buffer.contents b

  let copy t ~fabric =
    { fabric; bus = Bus.copy t.bus; scratch = Mesi.fresh_grant () }

  (* The only protocol state beyond the caches is the arbiter token. *)
  let save_state t w = Bus.save t.bus w
  let restore_state t r = Bus.restore t.bus r
end

let protocol fabric = Protocol.Packed ((module P), P.create fabric)
