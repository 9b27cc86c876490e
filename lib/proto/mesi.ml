open Warden_cache
open States

(* Grants are written into a reusable per-protocol scratch record: the hot
   path allocates neither the grant nor a [Some line] box. [fill] is
   either a view of the source line (LLC line or transferring owner's
   copy) or the [no_fill] sentinel; every consumer copies the bytes into
   its own line before triggering further protocol activity, so the view
   is never live across a fill into its pool (DESIGN.md §10). *)
type grant = {
  mutable pstate : States.pstate;
  mutable fill : Linedata.t;
  mutable latency : int;
}

let no_fill = Linedata.create ()
let has_fill g = g.fill != no_fill
let fresh_grant () = { pstate = P_S; fill = no_fill; latency = 0 }

(* Invalidate [target]'s copy, counting one invalidation per cache level
   holding the line (the paper counts coherence events per cache). Returns
   the extracted copy. *)
let invalidate_counted (f : Fabric.t) ~core ~blk probe_result =
  match probe_result with
  | None -> None
  | Some p ->
      f.Fabric.stats.Pstats.invalidations <-
        f.Fabric.stats.Pstats.invalidations + p.Fabric.levels;
      Warden_obs.Obs.event f.Fabric.obs ~code:Warden_obs.Events.invalidation
        ~core ~blk ~arg:p.Fabric.levels;
      Some p

let downgrade_counted (f : Fabric.t) ~core ~blk probe_result =
  match probe_result with
  | None -> None
  | Some p ->
      f.Fabric.stats.Pstats.downgrades <-
        f.Fabric.stats.Pstats.downgrades + p.Fabric.levels;
      Warden_obs.Obs.event f.Fabric.obs ~code:Warden_obs.Events.downgrade
        ~core ~blk ~arg:p.Fabric.levels;
      Some p

let handle_request (f : Fabric.t) dir (g : grant) ~core ~blk ~write ~holds_s =
  let e = Dirstate.entry dir blk in
  let cs = Fabric.socket_of_core f core in
  Fabric.dir_access f;
  Fabric.dir_msg f ~socket:cs ~blk ~data:false;
  let to_home = Fabric.dir_leg f ~socket:cs ~blk in
  let from_home = to_home in
  let fetch_shared () =
    let data, where = f.Fabric.read_shared ~blk in
    let lat = Fabric.shared_read_latency f where in
    Fabric.dir_msg f ~socket:cs ~blk ~data:true;
    (data, lat)
  in
  (match (Dirstate.state dir e, write) with
  | D_W, _ -> assert false (* peeled off by the WARDen front end *)
  | D_I, _ ->
      let data, shared_lat = fetch_shared () in
      Dirstate.set_state dir e (if write then D_M else D_E);
      Dirstate.set_owner dir e core;
      g.pstate <- grant_pstate ~write;
      g.fill <- data;
      g.latency <- to_home + shared_lat + from_home
  | D_S, false ->
      assert (not (Dirstate.sharer_mem dir e core));
      let data, shared_lat = fetch_shared () in
      Dirstate.sharer_add dir e core;
      g.pstate <- P_S;
      g.fill <- data;
      g.latency <- to_home + shared_lat + from_home
  | D_S, true ->
      (* Upgrade (or write miss to a shared block): invalidate every other
         sharer; acks flow to the requestor. *)
      let inv_lat = ref 0 in
      Dirstate.sharer_iter dir e (fun s ->
          if s <> core then begin
            let ss = Fabric.socket_of_core f s in
            Fabric.dir_msg f ~socket:ss ~blk ~data:false;
            Fabric.msg f ~from_socket:ss ~to_socket:cs ~data:false;
            ignore
              (invalidate_counted f ~core:s ~blk
                 (f.Fabric.invalidate_priv ~core:s ~blk));
            inv_lat :=
              max !inv_lat
                (Fabric.dir_hop f ~socket:ss ~blk
                + Fabric.hop f ~from_socket:ss ~to_socket:cs)
          end);
      let data, shared_lat =
        if holds_s then (no_fill, f.Fabric.config.Warden_machine.Config.l3_lat)
        else fetch_shared ()
      in
      if not holds_s then
        (* grant message already counted by fetch_shared *)
        ()
      else Fabric.dir_msg f ~socket:cs ~blk ~data:false;
      Dirstate.set_state dir e D_M;
      Dirstate.set_owner dir e core;
      Dirstate.sharers_clear dir e;
      g.pstate <- P_M;
      g.fill <- data;
      g.latency <- to_home + max shared_lat !inv_lat + from_home
  | (D_E | D_M), _ ->
      (* Fwd-GetS / Fwd-GetM to the owner. The owner may have silently
         upgraded E to M, so its data is fetched either way. *)
      let o = Dirstate.owner dir e in
      assert (o >= 0 && o <> core);
      let os = Fabric.socket_of_core f o in
      f.Fabric.stats.Pstats.fwds <- f.Fabric.stats.Pstats.fwds + 1;
      Fabric.dir_msg f ~socket:os ~blk ~data:false;
      Fabric.msg f ~from_socket:os ~to_socket:cs ~data:true;
      let probe =
        if write then
          invalidate_counted f ~core:o ~blk
            (f.Fabric.invalidate_priv ~core:o ~blk)
        else downgrade_counted f ~core:o ~blk (f.Fabric.downgrade_priv ~core:o ~blk)
      in
      let owner_line =
        match probe with
        | Some p -> p.Fabric.data
        | None -> assert false (* directory is precise: owner must hold it *)
      in
      (* A dirty copy must reach the home on a downgrade so later S readers
         can be served from the LLC: a real writeback data message. *)
      if Linedata.is_dirty owner_line then begin
        if not write then begin
          Fabric.dir_msg f ~socket:os ~blk ~data:true;
          f.Fabric.stats.Pstats.writebacks <-
            f.Fabric.stats.Pstats.writebacks + 1
        end;
        f.Fabric.llc_merge ~blk owner_line;
        Linedata.clear_dirty owner_line
      end;
      (* Fill straight from the owner's line: the requester copies the
         bytes into its own line before anything can reuse the slot. *)
      let data = owner_line in
      let latency =
        to_home
        + f.Fabric.config.Warden_machine.Config.l3_lat
        + Fabric.dir_hop f ~socket:os ~blk
        + f.Fabric.config.Warden_machine.Config.l2_lat
        + Fabric.hop f ~from_socket:os ~to_socket:cs
      in
      if write then begin
        Dirstate.set_state dir e D_M;
        Dirstate.set_owner dir e core;
        Dirstate.sharers_clear dir e;
        g.pstate <- P_M
      end
      else begin
        Dirstate.set_state dir e D_S;
        Dirstate.set_owner dir e (-1);
        Dirstate.sharers_clear dir e;
        Dirstate.sharer_add dir e o;
        Dirstate.sharer_add dir e core;
        g.pstate <- P_S
      end;
      g.fill <- data;
      g.latency <- latency);
  g

let handle_evict (f : Fabric.t) dir ~core ~blk ~pstate ~data =
  let e = Dirstate.entry dir blk in
  let cs = Fabric.socket_of_core f core in
  Fabric.dir_access f;
  match pstate with
  | P_M ->
      (* Dir may still believe E after a silent E->M upgrade. *)
      assert (Dirstate.state dir e = D_M || Dirstate.state dir e = D_E);
      assert (Dirstate.owner dir e = core);
      Fabric.dir_msg f ~socket:cs ~blk ~data:true;
      f.Fabric.stats.Pstats.writebacks <- f.Fabric.stats.Pstats.writebacks + 1;
      f.Fabric.llc_put_full ~blk data;
      Dirstate.set_invalid dir e
  | P_E ->
      assert (Dirstate.state dir e = D_E && Dirstate.owner dir e = core);
      Fabric.dir_msg f ~socket:cs ~blk ~data:false;
      Dirstate.set_invalid dir e
  | P_S ->
      assert (Dirstate.state dir e = D_S);
      Fabric.dir_msg f ~socket:cs ~blk ~data:false;
      Dirstate.sharer_remove dir e core;
      if Dirstate.sharers_empty dir e then Dirstate.set_invalid dir e

let flush_entry (f : Fabric.t) dir e =
  let blk = Dirstate.block dir e in
  match Dirstate.state dir e with
  | D_I -> ()
  | D_W -> assert false
  | D_S ->
      List.iter
        (fun c -> ignore (f.Fabric.invalidate_priv ~core:c ~blk))
        (Dirstate.holders dir e);
      Dirstate.set_invalid dir e
  | D_E | D_M -> (
      let o = Dirstate.owner dir e in
      match f.Fabric.invalidate_priv ~core:o ~blk with
      | None -> Dirstate.set_invalid dir e
      | Some p ->
          (* A silently-upgraded E line is dirty; a true E line is not.
             An M line must be written back whether or not its mask is
             set (its fill base may predate memory). The writeback is
             traffic the program owes no matter when it drains, so it
             is counted. *)
          if Dirstate.state dir e = D_M || Linedata.is_dirty p.Fabric.data
          then begin
            Fabric.dir_msg f ~socket:(Fabric.socket_of_core f o) ~blk
              ~data:true;
            f.Fabric.stats.Pstats.writebacks <-
              f.Fabric.stats.Pstats.writebacks + 1;
            f.Fabric.llc_put_full ~blk p.Fabric.data
          end;
          Dirstate.set_invalid dir e)
