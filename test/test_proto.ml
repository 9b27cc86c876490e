(* White-box protocol tests: a hand-rolled fabric with hashtable-backed
   private caches drives the MESI engine and the WARDen protocol directly,
   asserting directory states, event counts and grant kinds transition by
   transition (the Fig. 5 FSA). *)

open Warden_cache
open Warden_machine
open Warden_proto
open Warden_proto.States

(* A miniature fabric: [ncores] private caches of unbounded capacity, one
   LLC hashtable per socket slice (by home), and a store. *)
type mini = {
  fabric : Fabric.t;
  priv : (int * int, Linedata.t) Hashtbl.t;
  llc : (int, Linedata.t) Hashtbl.t;
  store : Warden_mem.Store.t;
}

(* Directory sized for the mini fabric's default dual-socket machine. *)
let mk_dir ?(sockets = 2) ?(cores_per_socket = 12) () =
  Dirstate.create ~sockets ~cores_per_socket ()

let mk_mini ?(cfg = Config.dual_socket ()) () =
  let priv = Hashtbl.create 64 in
  let llc = Hashtbl.create 64 in
  let store = Warden_mem.Store.create () in
  (* The mini caches don't track grant states; report M for dirty copies
     and S otherwise — all the probe consumers distinguish. *)
  let probe ~core ~blk =
    Option.map
      (fun data ->
        {
          Fabric.levels = 2;
          state = (if Linedata.is_dirty data then P_M else P_S);
          data;
        })
      (Hashtbl.find_opt priv (core, blk))
  in
  let fabric =
    {
      Fabric.config = cfg;
      energy = Energy.create ();
      stats = Pstats.create ();
      obs = Warden_obs.Obs.create cfg;
      peek_priv = probe;
      invalidate_priv =
        (fun ~core ~blk ->
          let p = probe ~core ~blk in
          Hashtbl.remove priv (core, blk);
          p);
      downgrade_priv = probe;
      iter_priv =
        (fun ~core f ->
          Hashtbl.iter (fun (c, blk) _ -> if c = core then f blk) priv);
      read_shared =
        (fun ~blk ->
          match Hashtbl.find_opt llc blk with
          | Some line -> (line, `L3)
          | None ->
              let line =
                Linedata.of_bytes (Warden_mem.Store.read_block store blk)
              in
              Hashtbl.add llc blk line;
              (line, `Dram));
      llc_merge =
        (fun ~blk src ->
          let line =
            match Hashtbl.find_opt llc blk with
            | Some l -> l
            | None ->
                let l =
                  Linedata.of_bytes (Warden_mem.Store.read_block store blk)
                in
                Hashtbl.add llc blk l;
                l
          in
          Linedata.merge_masked ~dst:line ~src);
      llc_put_full =
        (fun ~blk src ->
          let l = Linedata.copy src in
          Linedata.mark_all_dirty l;
          Hashtbl.replace llc blk l);
    }
  in
  { fabric; priv; llc; store }

(* Install a grant into the mini private cache, as the memory system
   would, and snapshot it: protocol grants arrive in a reusable scratch
   record whose fields the next request overwrites. *)
let accept m ~core ~blk (g : Mesi.grant) =
  if Mesi.has_fill g then begin
    let line = Linedata.create () in
    Linedata.fill_from line g.Mesi.fill;
    Hashtbl.replace m.priv (core, blk) line
  end;
  { Mesi.pstate = g.Mesi.pstate; fill = g.Mesi.fill; latency = g.Mesi.latency }

let request m dir ~core ~blk ~write ~holds_s =
  accept m ~core ~blk
    (Mesi.handle_request m.fabric dir (Mesi.fresh_grant ()) ~core ~blk ~write
       ~holds_s)

(* ---- MESI ------------------------------------------------------------------ *)

let test_mesi_read_grants_e () =
  let m = mk_mini () in
  let dir = mk_dir () in
  let g = request m dir ~core:0 ~blk:5 ~write:false ~holds_s:false in
  Alcotest.(check bool) "granted E" true (g.Mesi.pstate = P_E);
  let e = Dirstate.entry dir 5 in
  Alcotest.(check bool) "dir E" true (Dirstate.state dir e = D_E);
  Alcotest.(check int) "owner" 0 (Dirstate.owner dir e);
  Alcotest.(check int) "no invalidations" 0 m.fabric.Fabric.stats.Pstats.invalidations

let test_mesi_write_grants_m () =
  let m = mk_mini () in
  let dir = mk_dir () in
  let g = request m dir ~core:3 ~blk:9 ~write:true ~holds_s:false in
  Alcotest.(check bool) "granted M" true (g.Mesi.pstate = P_M);
  Alcotest.(check bool) "dir M" true
    (Dirstate.state dir (Dirstate.entry dir 9) = D_M)

let test_mesi_read_after_write_downgrades () =
  let m = mk_mini () in
  let dir = mk_dir () in
  ignore (request m dir ~core:0 ~blk:1 ~write:true ~holds_s:false);
  (* Core 0 writes a value into its private copy. *)
  Linedata.store (Hashtbl.find m.priv (0, 1)) ~off:0 ~size:8 77L;
  let g = request m dir ~core:1 ~blk:1 ~write:false ~holds_s:false in
  Alcotest.(check bool) "granted S" true (g.Mesi.pstate = P_S);
  Alcotest.(check int) "one owner downgraded (2 levels)" 2
    m.fabric.Fabric.stats.Pstats.downgrades;
  Alcotest.(check int) "one fwd" 1 m.fabric.Fabric.stats.Pstats.fwds;
  (* The reader received the writer's data, not stale memory. *)
  Alcotest.(check int64) "forwarded value" 77L
    (Linedata.load (Hashtbl.find m.priv (1, 1)) ~off:0 ~size:8);
  let e = Dirstate.entry dir 1 in
  Alcotest.(check bool) "dir S" true (Dirstate.state dir e = D_S);
  Alcotest.(check (list int)) "both sharers" [ 0; 1 ]
    (Dirstate.holders dir e)

let test_mesi_write_invalidates_sharers () =
  let m = mk_mini () in
  let dir = mk_dir () in
  ignore (request m dir ~core:0 ~blk:2 ~write:true ~holds_s:false);
  ignore (request m dir ~core:1 ~blk:2 ~write:false ~holds_s:false);
  ignore (request m dir ~core:2 ~blk:2 ~write:false ~holds_s:false);
  let before = m.fabric.Fabric.stats.Pstats.invalidations in
  (* Core 1 upgrades: cores 0 and 2 must lose their S copies. *)
  let g =
    Mesi.handle_request m.fabric dir (Mesi.fresh_grant ()) ~core:1 ~blk:2
      ~write:true ~holds_s:true
  in
  Alcotest.(check bool) "upgrade has no fill" false (Mesi.has_fill g);
  Alcotest.(check int) "two sharers invalidated (2 levels each)" 4
    (m.fabric.Fabric.stats.Pstats.invalidations - before);
  Alcotest.(check bool) "copy 0 gone" false (Hashtbl.mem m.priv (0, 2));
  Alcotest.(check bool) "dir M, owner 1" true
    (let e = Dirstate.entry dir 2 in
     Dirstate.state dir e = D_M && Dirstate.owner dir e = 1)

let test_mesi_write_write_transfer () =
  let m = mk_mini () in
  let dir = mk_dir () in
  ignore (request m dir ~core:0 ~blk:3 ~write:true ~holds_s:false);
  Linedata.store (Hashtbl.find m.priv (0, 3)) ~off:8 ~size:8 123L;
  let g = request m dir ~core:5 ~blk:3 ~write:true ~holds_s:false in
  Alcotest.(check bool) "granted M" true (g.Mesi.pstate = P_M);
  Alcotest.(check int64) "dirty data migrated" 123L
    (Linedata.load (Hashtbl.find m.priv (5, 3)) ~off:8 ~size:8);
  Alcotest.(check bool) "old owner invalidated" false (Hashtbl.mem m.priv (0, 3))

let test_mesi_cross_socket_latency_higher () =
  let m = mk_mini () in
  let dir = mk_dir () in
  (* Owner on socket 0 (core 0); compare requestors on both sockets.
     Choose a block homed on socket 0: home = blk mod 2. *)
  let blk = 4 in
  ignore (request m dir ~core:0 ~blk ~write:true ~holds_s:false);
  let near = request m dir ~core:1 ~blk ~write:false ~holds_s:false in
  (* Reset: new block, same geometry, remote requestor (core 12+). *)
  let blk2 = 6 in
  ignore (request m dir ~core:0 ~blk:blk2 ~write:true ~holds_s:false);
  let far = request m dir ~core:13 ~blk:blk2 ~write:false ~holds_s:false in
  Alcotest.(check bool)
    (Printf.sprintf "cross-socket read (%d) slower than local (%d)"
       far.Mesi.latency near.Mesi.latency)
    true
    (far.Mesi.latency > near.Mesi.latency)

let test_mesi_eviction_updates_directory () =
  let m = mk_mini () in
  let dir = mk_dir () in
  ignore (request m dir ~core:0 ~blk:7 ~write:true ~holds_s:false);
  let line = Hashtbl.find m.priv (0, 7) in
  Linedata.store line ~off:0 ~size:8 55L;
  Hashtbl.remove m.priv (0, 7);
  Mesi.handle_evict m.fabric dir ~core:0 ~blk:7 ~pstate:P_M ~data:line;
  Alcotest.(check bool) "dir invalid" true
    (Dirstate.state dir (Dirstate.entry dir 7) = D_I);
  Alcotest.(check int) "writeback counted" 1 m.fabric.Fabric.stats.Pstats.writebacks;
  (* Data reached the LLC: a fresh read returns it. *)
  let g = request m dir ~core:2 ~blk:7 ~write:false ~holds_s:false in
  ignore g;
  Alcotest.(check int64) "llc serves evicted data" 55L
    (Linedata.load (Hashtbl.find m.priv (2, 7)) ~off:0 ~size:8)

(* Past 62 cores the sharer set goes two-level: a coarse socket mask plus
   per-socket fine words in a flat array (DESIGN.md §14). The set must
   survive rehashes and copies with ascending iteration order intact. *)
let test_dirstate_sharer_hierarchy () =
  let dir = mk_dir ~sockets:8 ~cores_per_socket:12 () in
  Alcotest.(check bool) "96 cores use the two-level layout" true
    (Dirstate.hierarchical dir);
  let e = Dirstate.entry dir 11 in
  Dirstate.set_state dir e States.D_S;
  List.iter (Dirstate.sharer_add dir e) [ 3; 62; 63; 95 ];
  Alcotest.(check (list int)) "ascending across socket boundaries"
    [ 3; 62; 63; 95 ] (Dirstate.sharers dir e);
  Alcotest.(check int) "count" 4 (Dirstate.sharer_count dir e);
  Alcotest.(check bool) "mem high core" true (Dirstate.sharer_mem dir e 95);
  (* Force a rehash: fine words move with their slot. *)
  for b = 1000 to 1000 + 5000 do
    ignore (Dirstate.entry dir b)
  done;
  let e = Dirstate.entry dir 11 in
  Alcotest.(check (list int)) "sharers survive rehash" [ 3; 62; 63; 95 ]
    (Dirstate.sharers dir e);
  (* Copies must not share fine words with the original. *)
  let snap = Dirstate.copy dir in
  Dirstate.sharer_remove dir e 95;
  Dirstate.sharer_remove dir e 62;
  Alcotest.(check (list int)) "removal crosses socket boundaries" [ 3; 63 ]
    (Dirstate.sharers dir e);
  Alcotest.(check (list int)) "copy unaffected" [ 3; 62; 63; 95 ]
    (Dirstate.sharers snap (Dirstate.entry snap 11));
  Dirstate.sharers_clear dir e;
  Alcotest.(check bool) "empty after clear" true (Dirstate.sharers_empty dir e)

(* Differential sweep at the many-socket geometries the scaling study
   uses: deterministic add/remove/clear sequences against a naive
   reference set, checking membership, cardinality, emptiness and
   ascending iteration — with extra weight on socket-boundary cores. *)
let test_dirstate_sharer_sweep () =
  List.iter
    (fun (sockets, cps) ->
      let cores = sockets * cps in
      let dir = mk_dir ~sockets ~cores_per_socket:cps () in
      Alcotest.(check bool)
        (Printf.sprintf "%d cores hierarchical iff > 62" cores)
        (cores > 62) (Dirstate.hierarchical dir);
      let e = Dirstate.entry dir 7 in
      Dirstate.set_state dir e States.D_S;
      let model = Hashtbl.create 64 in
      let seed = ref 0x3779B97F4A7C15 in
      let rand bound =
        (* LCG mix; deterministic across runs. *)
        seed := (!seed * 0x2545F4914F6CDD1D) + 0x1234567;
        (!seed lsr 17) mod bound
      in
      for step = 1 to 2000 do
        (* Bias toward boundary cores: first/last lane of each socket. *)
        let core =
          match rand 4 with
          | 0 -> (rand sockets * cps) + cps - 1
          | 1 -> rand sockets * cps
          | _ -> rand cores
        in
        (match rand 10 with
        | 0 ->
            Dirstate.sharers_clear dir e;
            Hashtbl.reset model
        | 1 | 2 | 3 ->
            Dirstate.sharer_remove dir e core;
            Hashtbl.remove model core
        | _ ->
            Dirstate.sharer_add dir e core;
            Hashtbl.replace model core ());
        if Dirstate.sharer_mem dir e core <> Hashtbl.mem model core then
          Alcotest.failf "cores=%d step=%d: mem %d disagrees" cores step core;
        if Dirstate.sharer_count dir e <> Hashtbl.length model then
          Alcotest.failf "cores=%d step=%d: cardinality disagrees" cores step;
        if Dirstate.sharers_empty dir e <> (Hashtbl.length model = 0) then
          Alcotest.failf "cores=%d step=%d: emptiness disagrees" cores step;
        if step mod 100 = 0 then begin
          let reference =
            List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) model [])
          in
          if Dirstate.sharers dir e <> reference then
            Alcotest.failf "cores=%d step=%d: iteration order disagrees" cores
              step
        end
      done)
    [ (4, 16); (8, 16); (32, 16); (8, 12); (62, 8) ]

(* ---- WARDen ----------------------------------------------------------------- *)

let mk_warden ?cfg () =
  let m = mk_mini ?cfg () in
  (m, Warden_core.Warden.P.create m.fabric)

let wrequest m w ~core ~blk ~write ~holds_s =
  accept m ~core ~blk
    (Warden_core.Warden.P.handle_request w ~core ~blk ~write ~holds_s)

let dir_of w blk =
  let regions = Warden_core.Warden.P.regions w in
  ignore regions;
  blk

let test_warden_region_add_remove () =
  let _, w = mk_warden () in
  Alcotest.(check bool) "add ok" true
    (Warden_core.Warden.P.region_add w ~lo:0x1000 ~hi:0x2000);
  let r = Warden_core.Warden.P.regions w in
  Alcotest.(check int) "one region" 1 (Warden_core.Regions.count r);
  Alcotest.(check bool) "mem inside" true (Warden_core.Regions.mem r 0x1800);
  Alcotest.(check bool) "not outside" false (Warden_core.Regions.mem r 0x2000);
  ignore (Warden_core.Warden.P.region_remove w ~lo:0x1000 ~hi:0x2000);
  Alcotest.(check int) "removed" 0 (Warden_core.Regions.count r)

let test_warden_no_invalidation_inside_region () =
  let m, w = mk_warden () in
  ignore (Warden_core.Warden.P.region_add w ~lo:0x1000 ~hi:0x2000);
  let blk = Warden_mem.Addr.block_of 0x1000 in
  ignore (dir_of w blk);
  (* Two cores write the same WARD block: no invalidations, no downgrades,
     both keep exclusive-like copies. *)
  let g0 = wrequest m w ~core:0 ~blk ~write:true ~holds_s:false in
  let g1 = wrequest m w ~core:1 ~blk ~write:true ~holds_s:false in
  Alcotest.(check bool) "both granted M" true
    (g0.Mesi.pstate = P_M && g1.Mesi.pstate = P_M);
  Alcotest.(check int) "no invalidations" 0 m.fabric.Fabric.stats.Pstats.invalidations;
  Alcotest.(check int) "no downgrades" 0 m.fabric.Fabric.stats.Pstats.downgrades;
  Alcotest.(check bool) "core 0 keeps its copy" true (Hashtbl.mem m.priv (0, blk));
  Alcotest.(check int) "two ward grants" 2 m.fabric.Fabric.stats.Pstats.ward_grants

let test_warden_reconciliation_merges_sectors () =
  let m, w = mk_warden () in
  ignore (Warden_core.Warden.P.region_add w ~lo:0x4000 ~hi:0x5000);
  let blk = Warden_mem.Addr.block_of 0x4000 in
  ignore (wrequest m w ~core:0 ~blk ~write:true ~holds_s:false);
  ignore (wrequest m w ~core:1 ~blk ~write:true ~holds_s:false);
  (* False sharing: disjoint bytes of the same block. *)
  Linedata.store (Hashtbl.find m.priv (0, blk)) ~off:0 ~size:1 0xAAL;
  Linedata.store (Hashtbl.find m.priv (1, blk)) ~off:1 ~size:1 0xBBL;
  ignore (Warden_core.Warden.P.region_remove w ~lo:0x4000 ~hi:0x5000);
  (* Both copies flushed; merged line in LLC has both bytes. *)
  Alcotest.(check bool) "copies flushed" true
    ((not (Hashtbl.mem m.priv (0, blk))) && not (Hashtbl.mem m.priv (1, blk)));
  let llc_line = Hashtbl.find m.llc blk in
  Alcotest.(check int64) "byte from core 0" 0xAAL
    (Linedata.load llc_line ~off:0 ~size:1);
  Alcotest.(check int64) "byte from core 1" 0xBBL
    (Linedata.load llc_line ~off:1 ~size:1);
  Alcotest.(check bool) "recon events counted" true
    (m.fabric.Fabric.stats.Pstats.recon_blocks >= 1
    && m.fabric.Fabric.stats.Pstats.recon_flushes >= 2)

let test_warden_true_sharing_last_writer_wins () =
  let m, w = mk_warden () in
  ignore (Warden_core.Warden.P.region_add w ~lo:0x6000 ~hi:0x7000);
  let blk = Warden_mem.Addr.block_of 0x6000 in
  ignore (wrequest m w ~core:0 ~blk ~write:true ~holds_s:false);
  ignore (wrequest m w ~core:2 ~blk ~write:true ~holds_s:false);
  (* True sharing: same byte, different values; merge order is ascending
     core id, so core 2's value persists. *)
  Linedata.store (Hashtbl.find m.priv (0, blk)) ~off:4 ~size:1 0x11L;
  Linedata.store (Hashtbl.find m.priv (2, blk)) ~off:4 ~size:1 0x22L;
  ignore (Warden_core.Warden.P.region_remove w ~lo:0x6000 ~hi:0x7000);
  Alcotest.(check int64) "directory-order winner" 0x22L
    (Linedata.load (Hashtbl.find m.llc blk) ~off:4 ~size:1)

let test_warden_sole_holder_retains_shared () =
  let m, w = mk_warden () in
  ignore (Warden_core.Warden.P.region_add w ~lo:0x8000 ~hi:0x9000);
  let blk = Warden_mem.Addr.block_of 0x8000 in
  ignore (wrequest m w ~core:1 ~blk ~write:true ~holds_s:false);
  Linedata.store (Hashtbl.find m.priv (1, blk)) ~off:0 ~size:8 99L;
  ignore (Warden_core.Warden.P.region_remove w ~lo:0x8000 ~hi:0x9000);
  (* Sole holder: dirty bytes written back, copy retained as clean S. *)
  Alcotest.(check bool) "copy retained" true (Hashtbl.mem m.priv (1, blk));
  Alcotest.(check bool) "copy clean" false
    (Linedata.is_dirty (Hashtbl.find m.priv (1, blk)));
  Alcotest.(check int64) "llc has the data" 99L
    (Linedata.load (Hashtbl.find m.llc blk) ~off:0 ~size:8)

let test_warden_outside_region_is_mesi () =
  let m, w = mk_warden () in
  ignore (Warden_core.Warden.P.region_add w ~lo:0x1000 ~hi:0x2000);
  (* A block outside any region behaves exactly like MESI. *)
  let blk = Warden_mem.Addr.block_of 0xF000 in
  ignore (wrequest m w ~core:0 ~blk ~write:true ~holds_s:false);
  Linedata.store (Hashtbl.find m.priv (0, blk)) ~off:0 ~size:8 5L;
  ignore (wrequest m w ~core:1 ~blk ~write:false ~holds_s:false);
  Alcotest.(check int) "legacy downgrade still happens" 2
    m.fabric.Fabric.stats.Pstats.downgrades;
  Alcotest.(check int) "no ward grant" 0 m.fabric.Fabric.stats.Pstats.ward_grants

let test_warden_cam_capacity () =
  let cfg = { (Config.dual_socket ()) with Config.ward_region_capacity = 2 } in
  let _, w = mk_warden ~cfg () in
  Alcotest.(check bool) "1st" true (Warden_core.Warden.P.region_add w ~lo:0 ~hi:64);
  Alcotest.(check bool) "2nd" true
    (Warden_core.Warden.P.region_add w ~lo:128 ~hi:192);
  Alcotest.(check bool) "3rd rejected" false
    (Warden_core.Warden.P.region_add w ~lo:256 ~hi:320);
  ignore (Warden_core.Warden.P.region_remove w ~lo:0 ~hi:64);
  Alcotest.(check bool) "accepted after eviction" true
    (Warden_core.Warden.P.region_add w ~lo:256 ~hi:320)

let test_warden_remove_unknown_is_noop () =
  let _, w = mk_warden () in
  Alcotest.(check int) "latency 0" 0
    (Warden_core.Warden.P.region_remove w ~lo:0xA000 ~hi:0xB000)

(* ---- Regions (range CAM) ----------------------------------------------------- *)

let test_regions_overlap () =
  let r = Warden_core.Regions.create ~capacity:8 in
  ignore (Warden_core.Regions.add r ~lo:0 ~hi:100);
  ignore (Warden_core.Regions.add r ~lo:50 ~hi:200);
  Alcotest.(check bool) "in both" true (Warden_core.Regions.mem r 60);
  Alcotest.(check bool) "in first only" true (Warden_core.Regions.mem r 10);
  Alcotest.(check bool) "in second only" true (Warden_core.Regions.mem r 150);
  ignore (Warden_core.Regions.remove r ~lo:0 ~hi:100);
  Alcotest.(check bool) "10 no longer covered" false (Warden_core.Regions.mem r 10);
  Alcotest.(check bool) "60 still covered" true (Warden_core.Regions.mem r 60)

let regions_vs_naive =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"range CAM lookup = naive interval scan"
       QCheck2.Gen.(
         pair
           (list (pair (int_range 0 1000) (int_range 1 100)))
           (list (int_range 0 1200)))
       (fun (intervals, queries) ->
         let r = Warden_core.Regions.create ~capacity:10_000 in
         List.iter
           (fun (lo, len) -> ignore (Warden_core.Regions.add r ~lo ~hi:(lo + len)))
           intervals;
         List.for_all
           (fun q ->
             let naive =
               List.exists (fun (lo, len) -> q >= lo && q < lo + len) intervals
             in
             Warden_core.Regions.mem r q = naive)
           queries))

let suite =
  [
    Alcotest.test_case "mesi read grants E" `Quick test_mesi_read_grants_e;
    Alcotest.test_case "mesi write grants M" `Quick test_mesi_write_grants_m;
    Alcotest.test_case "mesi RAW downgrades owner" `Quick
      test_mesi_read_after_write_downgrades;
    Alcotest.test_case "mesi upgrade invalidates sharers" `Quick
      test_mesi_write_invalidates_sharers;
    Alcotest.test_case "mesi M-to-M transfer" `Quick test_mesi_write_write_transfer;
    Alcotest.test_case "mesi cross-socket latency" `Quick
      test_mesi_cross_socket_latency_higher;
    Alcotest.test_case "mesi eviction" `Quick test_mesi_eviction_updates_directory;
    Alcotest.test_case "dirstate two-level sharers past 62 cores" `Quick
      test_dirstate_sharer_hierarchy;
    Alcotest.test_case "dirstate sharer sweep at 64/128/512 cores" `Quick
      test_dirstate_sharer_sweep;
    Alcotest.test_case "warden region add/remove" `Quick test_warden_region_add_remove;
    Alcotest.test_case "warden disables coherence in regions" `Quick
      test_warden_no_invalidation_inside_region;
    Alcotest.test_case "warden false-sharing reconciliation" `Quick
      test_warden_reconciliation_merges_sectors;
    Alcotest.test_case "warden true-sharing last writer" `Quick
      test_warden_true_sharing_last_writer_wins;
    Alcotest.test_case "warden sole holder retained" `Quick
      test_warden_sole_holder_retains_shared;
    Alcotest.test_case "warden legacy path is MESI" `Quick
      test_warden_outside_region_is_mesi;
    Alcotest.test_case "warden CAM capacity" `Quick test_warden_cam_capacity;
    Alcotest.test_case "warden remove unknown" `Quick test_warden_remove_unknown_is_noop;
    Alcotest.test_case "regions overlap" `Quick test_regions_overlap;
    regions_vs_naive;
  ]

let () = Alcotest.run "warden-proto" [ ("proto", suite) ]
