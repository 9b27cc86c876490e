(* Unit and property tests for warden.mem and warden.cache: the backing
   store, address geometry, sectored line data, the set-associative
   arrays and the slot storage of cache lines. *)

open Warden_mem
open Warden_cache

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Addr ------------------------------------------------------------------ *)

let test_addr_geometry () =
  Alcotest.(check int) "block size" 64 Addr.block_size;
  Alcotest.(check int) "block of 0" 0 (Addr.block_of 63);
  Alcotest.(check int) "block of 64" 1 (Addr.block_of 64);
  Alcotest.(check int) "offset" 63 (Addr.offset_in_block 127);
  Alcotest.(check int) "base" 64 (Addr.block_base 127);
  Alcotest.(check bool) "same block" true (Addr.same_block 64 127);
  Alcotest.(check bool) "diff block" false (Addr.same_block 63 64);
  Alcotest.(check (list int)) "span" [ 0; 1; 2 ] (Addr.blocks_spanning 32 100);
  Alcotest.(check (list int)) "empty span" [] (Addr.blocks_spanning 32 0)

(* --- Store ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  let s = Store.create () in
  Store.store s 0x1000 ~size:8 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Store.load s 0x1000 ~size:8);
  Alcotest.(check int64) "low u32" 0x55667788L (Store.load s 0x1000 ~size:4);
  Alcotest.(check int64) "byte 0 (little endian)" 0x88L (Store.load s 0x1000 ~size:1);
  Alcotest.(check int64) "byte 7" 0x11L (Store.load s 0x1007 ~size:1);
  Alcotest.(check int64) "unwritten reads zero" 0L (Store.load s 0x9000 ~size:8)

let test_store_alignment_rejected () =
  let s = Store.create () in
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Store: unaligned 8-byte access at 0x1001") (fun () ->
      ignore (Store.load s 0x1001 ~size:8));
  Alcotest.check_raises "bad size" (Invalid_argument "Store: size must be 1, 2, 4 or 8")
    (fun () -> ignore (Store.load s 0x1000 ~size:3))

let test_store_materialization () =
  let s = Store.create () in
  Alcotest.(check bool) "fresh not materialized" false
    (Store.materialized s (Addr.block_of 0x2000));
  Store.store s 0x2000 ~size:1 1L;
  Alcotest.(check bool) "written materialized" true
    (Store.materialized s (Addr.block_of 0x2000));
  Alcotest.(check bool) "neighbor block untouched" false
    (Store.materialized s (Addr.block_of 0x2040))

let test_store_masked_writeback () =
  let s = Store.create () in
  Store.store s 0 ~size:8 0x0101010101010101L;
  let data = Bytes.make 64 '\xFF' in
  (* Write back only bytes 0 and 2. *)
  Store.write_block_masked s 0 data ~mask:0b101L;
  Alcotest.(check int64) "byte 0 replaced" 0xFFL (Store.load s 0 ~size:1);
  Alcotest.(check int64) "byte 1 kept" 0x01L (Store.load s 1 ~size:1);
  Alcotest.(check int64) "byte 2 replaced" 0xFFL (Store.load s 2 ~size:1)

let store_model =
  qtest ~count:200 "store matches byte-array model"
    QCheck2.Gen.(list (pair (int_range 0 511) (int_range 0 255)))
    (fun writes ->
      let s = Store.create () in
      let model = Bytes.make 512 '\000' in
      List.iter
        (fun (off, v) ->
          Store.store s off ~size:1 (Int64.of_int v);
          Bytes.set model off (Char.chr v))
        writes;
      List.for_all
        (fun off ->
          Store.load s off ~size:1 = Int64.of_int (Char.code (Bytes.get model off)))
        (List.init 512 Fun.id))

(* --- Linedata ---------------------------------------------------------------- *)

let test_linedata_dirty_tracking () =
  let l = Linedata.create () in
  Alcotest.(check bool) "clean" false (Linedata.is_dirty l);
  Linedata.store l ~off:8 ~size:4 0xAABBCCDDL;
  Alcotest.(check int64) "mask covers bytes 8-11" 0xF00L (Linedata.dirty_mask l);
  Alcotest.(check int64) "readback" 0xAABBCCDDL (Linedata.load l ~off:8 ~size:4);
  Linedata.clear_dirty l;
  Alcotest.(check bool) "cleared" false (Linedata.is_dirty l);
  Alcotest.(check int64) "data survives clear" 0xAABBCCDDL
    (Linedata.load l ~off:8 ~size:4)

let test_linedata_fill_resets () =
  let l = Linedata.create () in
  Linedata.store l ~off:0 ~size:8 1L;
  Linedata.fill_from l (Linedata.of_bytes (Bytes.make 64 '\x42'));
  Alcotest.(check bool) "fill clears dirty" false (Linedata.is_dirty l);
  Alcotest.(check int64) "fill data visible" 0x4242424242424242L
    (Linedata.load l ~off:16 ~size:8)

let test_linedata_merge_masked () =
  (* Two copies with disjoint dirty bytes merge losslessly, the paper's
     false-sharing reconciliation. *)
  let base = Bytes.make 64 '\000' in
  let a = Linedata.of_bytes (Bytes.copy base) in
  let b = Linedata.of_bytes (Bytes.copy base) in
  Linedata.store a ~off:0 ~size:1 0x11L;
  Linedata.store b ~off:1 ~size:1 0x22L;
  let dst = Linedata.of_bytes (Bytes.copy base) in
  Linedata.merge_masked ~dst ~src:a;
  Linedata.merge_masked ~dst ~src:b;
  Alcotest.(check int64) "byte from a" 0x11L (Linedata.load dst ~off:0 ~size:1);
  Alcotest.(check int64) "byte from b" 0x22L (Linedata.load dst ~off:1 ~size:1);
  Alcotest.(check int64) "merged mask" 3L (Linedata.dirty_mask dst)

let test_range_mask () =
  Alcotest.(check int64) "one byte" 0x8L (Linedata.range_mask ~off:3 ~size:1);
  Alcotest.(check int64) "full line" (-1L) (Linedata.range_mask ~off:0 ~size:64)

(* A store marks exactly [range_mask] at every sector granularity, in
   either mask half. *)
let test_store_mask_is_range_mask () =
  Fun.protect
    ~finally:(fun () -> Linedata.set_sector_bytes 1)
    (fun () ->
      List.iter
        (fun sector ->
          Linedata.set_sector_bytes sector;
          List.iter
            (fun size ->
              for k = 0 to (64 / size) - 1 do
                let off = k * size in
                let l = Linedata.create () in
                Linedata.store l ~off ~size 1L;
                Alcotest.(check int64)
                  (Printf.sprintf "sector %d, %d bytes at %d" sector size off)
                  (Linedata.range_mask ~off ~size)
                  (Linedata.dirty_mask l)
              done)
            [ 1; 2; 4; 8 ])
        [ 1; 2; 4; 8 ])

let linedata_merge_model =
  qtest ~count:200 "sector merge = per-byte last-writer"
    QCheck2.Gen.(list (pair (int_range 0 1) (pair (int_range 0 63) (int_range 1 255))))
    (fun writes ->
      (* Replay single-byte writes by two "cores" into private copies, then
         merge in core order; compare against a flat model where merge
         order only matters for bytes both wrote. *)
      let base = Bytes.make 64 '\000' in
      let copies = [| Linedata.of_bytes (Bytes.copy base); Linedata.of_bytes (Bytes.copy base) |] in
      let model = Array.make 64 None in
      List.iter
        (fun (core, (off, v)) ->
          Linedata.store copies.(core) ~off ~size:1 (Int64.of_int v);
          (* core 1 merges after core 0, so it wins ties *)
          match model.(off) with
          | Some (c, _) when c > core -> ()
          | _ -> model.(off) <- Some (core, v))
        writes;
      let dst = Linedata.of_bytes (Bytes.copy base) in
      Linedata.merge_masked ~dst ~src:copies.(0);
      Linedata.merge_masked ~dst ~src:copies.(1);
      Array.for_all Fun.id
        (Array.init 64 (fun off ->
             match model.(off) with
             | None -> Linedata.load dst ~off ~size:1 = 0L
             | Some (_, v) -> Linedata.load dst ~off ~size:1 = Int64.of_int v)))

(* --- Sa (set-associative array) -------------------------------------------- *)

let mk_sa ~sets ~ways = Sa.create ~sets ~ways ~payloads:true

(* The payload of a resident block, through the production probe. *)
let find c blk =
  let w = Sa.find_way c blk in
  if Sa.hit w then Some (Sa.value c w) else None

let population c =
  let n = ref 0 in
  Sa.iter c (fun _ _ -> incr n);
  !n

let test_sa_insert_find () =
  let c = mk_sa ~sets:4 ~ways:2 in
  Alcotest.(check (option int)) "no eviction" None
    (Option.map fst (Sa.insert c 0 10));
  Alcotest.(check (option int)) "find" (Some 10) (find c 0);
  Alcotest.(check bool) "mem" true (Sa.mem c 0);
  Alcotest.(check (option int)) "absent" None (find c 4);
  (* Capacity is sets * ways: seven more blocks fit, the ninth evicts. *)
  List.iter
    (fun b ->
      Alcotest.(check (option int))
        "fits" None
        (Option.map fst (Sa.insert c b b)))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  Alcotest.(check bool) "capacity 8" true (Sa.insert c 8 8 <> None)

let test_sa_lru_eviction () =
  let c = mk_sa ~sets:1 ~ways:2 in
  ignore (Sa.insert c 0 10);
  ignore (Sa.insert c 1 11);
  ignore (find c 0);
  (* touch 0: now 1 is LRU *)
  (match Sa.insert c 2 12 with
  | Some (1, 11) -> ()
  | _ -> Alcotest.fail "expected block 1 evicted");
  Alcotest.(check bool) "0 kept" true (Sa.mem c 0);
  Alcotest.(check bool) "2 present" true (Sa.mem c 2)

let test_sa_insert_reports_victim () =
  let c = mk_sa ~sets:1 ~ways:1 in
  ignore (Sa.insert c 7 70);
  Alcotest.(check (option (pair int int))) "resident: no eviction" None
    (Sa.insert c 7 71);
  Alcotest.(check (option (pair int int))) "reports the victim" (Some (7, 71))
    (Sa.insert c 9 90)

let test_sa_remove_and_iter () =
  let c = mk_sa ~sets:2 ~ways:2 in
  List.iter (fun b -> ignore (Sa.insert c b (10 * b))) [ 0; 1; 2; 3 ];
  Alcotest.(check int) "population" 4 (population c);
  Sa.remove c 2;
  Alcotest.(check int) "after remove" 3 (population c);
  let seen = ref [] in
  Sa.iter c (fun blk p -> seen := (blk, p) :: !seen);
  Alcotest.(check (list (pair int int))) "iter all"
    [ (0, 0); (1, 10); (3, 30) ]
    (List.sort compare !seen)

(* The way-handle API: sentinel misses, MRU way-0 rotation that must not
   disturb LRU ordering, pure peeks, and refreshing touches. *)

let test_sa_way_sentinel () =
  let c = mk_sa ~sets:2 ~ways:2 in
  ignore (Sa.insert c 0 10);
  Alcotest.(check bool) "find_way hit" true (Sa.hit (Sa.find_way c 0));
  Alcotest.(check int) "value" 10 (Sa.value c (Sa.find_way c 0));
  Alcotest.(check bool) "find_way miss" false (Sa.hit (Sa.find_way c 2));
  Alcotest.(check bool) "peek_way miss" false (Sa.hit (Sa.peek_way c 2))

let test_sa_lru_correct_after_way_swap () =
  let c = mk_sa ~sets:1 ~ways:3 in
  ignore (Sa.insert c 0 10);
  ignore (Sa.insert c 1 11);
  ignore (Sa.insert c 2 12);
  (* Hitting block 2 rotates it into way 0; block 0 stays LRU. *)
  ignore (Sa.find_way c 2);
  (match Sa.insert c 3 13 with
  | Some (0, 10) -> ()
  | _ -> Alcotest.fail "expected block 0 evicted after way swap");
  Alcotest.(check (option int)) "1 kept with its payload" (Some 11) (find c 1);
  Alcotest.(check (option int)) "2 kept with its payload" (Some 12) (find c 2)

let test_sa_peek_does_not_refresh () =
  let c = mk_sa ~sets:1 ~ways:2 in
  ignore (Sa.insert c 0 10);
  ignore (Sa.insert c 1 11);
  ignore (Sa.peek_way c 0);
  ignore (Sa.mem c 0);
  (* Peeks left block 0 least-recently used. *)
  match Sa.insert c 2 12 with
  | Some (0, 10) -> ()
  | _ -> Alcotest.fail "peek must not refresh recency"

let test_sa_touch_refreshes () =
  let c = mk_sa ~sets:1 ~ways:2 in
  ignore (Sa.insert c 0 10);
  ignore (Sa.insert c 1 11);
  Alcotest.(check bool) "touch hits" true (Sa.touch c 0);
  match Sa.insert c 2 12 with
  | Some (1, 11) -> ()
  | _ -> Alcotest.fail "touch must refresh recency"

let test_sa_promote_way_is_find_way () =
  (* Two arrays fed the same operations, one hitting through find_way and
     one through peek_way + promote_way, make the same victim choices. *)
  let a = mk_sa ~sets:1 ~ways:3 and b = mk_sa ~sets:1 ~ways:3 in
  List.iter
    (fun c -> List.iter (fun blk -> ignore (Sa.insert c blk blk)) [ 0; 1; 2 ])
    [ a; b ];
  List.iter
    (fun blk ->
      ignore (Sa.find_way a blk);
      ignore (Sa.promote_way b blk (Sa.peek_way b blk)))
    [ 2; 0 ];
  Alcotest.(check (option (pair int int))) "same victim" (Sa.insert a 3 3)
    (Sa.insert b 3 3)

let test_sa_tags_only () =
  let c = Sa.create ~sets:1 ~ways:2 ~payloads:false in
  ignore (Sa.insert c 0 0);
  Sa.insert_absent c 1 0;
  Alcotest.(check bool) "both resident" true (Sa.mem c 0 && Sa.mem c 1);
  Alcotest.(check (option int)) "victim block" (Some 0)
    (Option.map fst (Sa.insert c 2 0))

let test_sa_conflict_roundtrip () =
  let c = mk_sa ~sets:1 ~ways:1 in
  ignore (Sa.insert c 5 50);
  (match Sa.insert c 9 90 with
  | Some (5, 50) -> ()
  | _ -> Alcotest.fail "expected conflict eviction of 5");
  Alcotest.(check (option int)) "resident payload" (Some 90) (find c 9);
  Sa.remove c 9;
  Alcotest.(check bool) "gone" false (Sa.mem c 9);
  Alcotest.(check (option int)) "reinsert into empty way" None
    (Option.map fst (Sa.insert c 5 51));
  Alcotest.(check (option int)) "find after round trip" (Some 51) (find c 5)

(* The cache never exceeds capacity and never loses a resident block
   without an eviction report. *)
let sa_accounting =
  qtest ~count:200 "insertions are fully accounted"
    QCheck2.Gen.(list (int_range 0 63))
    (fun blocks ->
      let c = mk_sa ~sets:4 ~ways:2 in
      let resident = Hashtbl.create 16 in
      List.iter
        (fun blk ->
          (match Sa.insert c blk blk with
          | Some (victim, p) ->
              assert (p = victim);
              Hashtbl.remove resident victim
          | None -> ());
          Hashtbl.replace resident blk ())
        blocks;
      population c = Hashtbl.length resident
      && Hashtbl.fold (fun blk () acc -> acc && Sa.mem c blk) resident true)

(* --- Linepool (slot storage) --------------------------------------------- *)

let test_linepool_reuses_freed_slots () =
  let p = Linepool.create () in
  Alcotest.(check int) "starts empty" 0 (Linepool.pages p);
  let slots = List.init Linepool.page_slots (fun _ -> Linepool.alloc p) in
  Alcotest.(check int) "one page" 1 (Linepool.pages p);
  Alcotest.(check int) "distinct slots" Linepool.page_slots
    (List.length (List.sort_uniq compare slots));
  let s = List.nth slots 17 in
  Linepool.free p s;
  Alcotest.(check int) "freed slot reused" s (Linepool.alloc p);
  Alcotest.(check int) "no page added" 1 (Linepool.pages p);
  ignore (Linepool.alloc p);
  Alcotest.(check int) "full pool adds a page" 2 (Linepool.pages p)

let test_linepool_views_survive_growth () =
  let p = Linepool.create () in
  let s = Linepool.alloc p in
  Linepool.fill_zero p s;
  Linepool.set_state p s 2;
  let v = Linepool.view p s in
  Linedata.store v ~off:40 ~size:8 0x1122334455667788L;
  for _ = 1 to 5 * Linepool.page_slots do
    Linepool.fill_zero p (Linepool.alloc p)
  done;
  Alcotest.(check bool) "pages added" true (Linepool.pages p > 1);
  Alcotest.(check int64) "old view reads its bytes" 0x1122334455667788L
    (Linedata.load v ~off:40 ~size:8);
  Alcotest.(check int64) "old view keeps its mask" 0xFF_0000_0000_00L
    (Linedata.dirty_mask v);
  Linepool.store p s ~off:0 ~size:1 0xABL;
  Alcotest.(check int64) "slot writes reach the old view" 0xABL
    (Linedata.load v ~off:0 ~size:1);
  Alcotest.(check int64) "and its mask" 0xFF_0000_0000_01L
    (Linedata.dirty_mask v);
  Alcotest.(check int) "state kept" 2 (Linepool.state p s)

let test_linepool_reset () =
  let p = Linepool.create () in
  for _ = 1 to (2 * Linepool.page_slots) + 3 do
    ignore (Linepool.alloc p)
  done;
  Alcotest.(check int) "three pages" 3 (Linepool.pages p);
  Linepool.reset p;
  let slots = List.init (3 * Linepool.page_slots) (fun _ -> Linepool.alloc p) in
  Alcotest.(check int) "every slot free again" (3 * Linepool.page_slots)
    (List.length (List.sort_uniq compare slots));
  Alcotest.(check int) "no page added" 3 (Linepool.pages p)

(* A pooled slot behaves like a standalone line under any sequence of
   stores, clears and masked merges: the mask halves reassemble into the
   standalone line's 64-bit mask, and merges move the same bytes. *)
let linepool_matches_standalone =
  qtest ~count:200 "pooled slot = standalone line"
    QCheck2.Gen.(
      list
        (triple (int_range 0 2) (pair (int_range 0 3) (int_range 0 63)) int64))
    (fun ops ->
      let p = Linepool.create () in
      (* Land on a slot of a second page so the position is not 0. *)
      for _ = 1 to Linepool.page_slots + 5 do
        Linepool.fill_zero p (Linepool.alloc p)
      done;
      let s = Linepool.alloc p in
      Linepool.fill_zero p s;
      let pooled = Linepool.view p s and solo = Linedata.create () in
      let dst_p = Linedata.create () and dst_s = Linedata.create () in
      List.iter
        (fun (op, (sz, off), v) ->
          let size = 1 lsl sz in
          let off = off land lnot (size - 1) in
          match op with
          | 0 ->
              Linepool.store p s ~off ~size v;
              Linedata.store solo ~off ~size v
          | 1 ->
              Linedata.merge_masked ~dst:dst_p ~src:pooled;
              Linedata.merge_masked ~dst:dst_s ~src:solo
          | _ ->
              Linedata.clear_dirty pooled;
              Linedata.clear_dirty solo)
        ops;
      Bytes.equal (Linedata.bytes pooled) (Linedata.bytes solo)
      && Linedata.dirty_mask pooled = Linedata.dirty_mask solo
      && Linepool.is_dirty p s = Linedata.is_dirty solo
      && Bytes.equal (Linedata.bytes dst_p) (Linedata.bytes dst_s)
      && Linedata.dirty_mask dst_p = Linedata.dirty_mask dst_s)

(* The grouped masked copy moves exactly the masked bytes. Mask bytes
   are drawn clean, full or partial so that every group case fires. *)
let sector_blit_model =
  let mask_byte = QCheck2.Gen.(oneof [ pure 0; pure 0xFF; int_range 0 255 ]) in
  qtest ~count:300 "sector blit = per-byte mask"
    QCheck2.Gen.(pair (list_size (pure 8) mask_byte) (int_range 0 255))
    (fun (groups, seed) ->
      let mask =
        List.fold_left
          (fun m b -> Int64.logor (Int64.shift_left m 8) (Int64.of_int b))
          0L groups
      in
      let src =
        Bytes.init 80 (fun i -> Char.chr (((i * 7) + seed) land 0xFF))
      in
      let dst = Bytes.make 72 '\xEE' in
      let expect = Bytes.copy dst in
      for i = 0 to 63 do
        if Int64.logand (Int64.shift_right_logical mask i) 1L = 1L then
          Bytes.set expect (i + 8) (Bytes.get src (i + 16))
      done;
      Sector.blit_masked ~src ~src_pos:16 ~dst ~dst_pos:8
        ~lo:(Sector.lo_of mask) ~hi:(Sector.hi_of mask);
      Sector.to_int64 ~lo:(Sector.lo_of mask) ~hi:(Sector.hi_of mask) = mask
      && Bytes.equal dst expect)

let suite =
  [
    Alcotest.test_case "addr geometry" `Quick test_addr_geometry;
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store alignment" `Quick test_store_alignment_rejected;
    Alcotest.test_case "store materialization" `Quick test_store_materialization;
    Alcotest.test_case "store masked writeback" `Quick test_store_masked_writeback;
    store_model;
    Alcotest.test_case "linedata dirty tracking" `Quick test_linedata_dirty_tracking;
    Alcotest.test_case "linedata fill" `Quick test_linedata_fill_resets;
    Alcotest.test_case "linedata merge" `Quick test_linedata_merge_masked;
    Alcotest.test_case "range mask" `Quick test_range_mask;
    Alcotest.test_case "store mask = range mask at every sector" `Quick
      test_store_mask_is_range_mask;
    linedata_merge_model;
    Alcotest.test_case "sa insert/find" `Quick test_sa_insert_find;
    Alcotest.test_case "sa lru" `Quick test_sa_lru_eviction;
    Alcotest.test_case "sa insert reports victim" `Quick
      test_sa_insert_reports_victim;
    Alcotest.test_case "sa remove/iter" `Quick test_sa_remove_and_iter;
    Alcotest.test_case "sa way sentinel" `Quick test_sa_way_sentinel;
    Alcotest.test_case "sa lru after way swap" `Quick
      test_sa_lru_correct_after_way_swap;
    Alcotest.test_case "sa peek is pure" `Quick test_sa_peek_does_not_refresh;
    Alcotest.test_case "sa touch refreshes" `Quick test_sa_touch_refreshes;
    Alcotest.test_case "sa promote_way = find_way" `Quick
      test_sa_promote_way_is_find_way;
    Alcotest.test_case "sa tags only" `Quick test_sa_tags_only;
    Alcotest.test_case "sa conflict round trip" `Quick
      test_sa_conflict_roundtrip;
    sa_accounting;
    Alcotest.test_case "linepool reuses freed slots" `Quick
      test_linepool_reuses_freed_slots;
    Alcotest.test_case "linepool views survive growth" `Quick
      test_linepool_views_survive_growth;
    Alcotest.test_case "linepool reset frees every slot" `Quick
      test_linepool_reset;
    linepool_matches_standalone;
    sector_blit_model;
  ]

let () = Alcotest.run "warden-cache" [ ("cache", suite) ]
