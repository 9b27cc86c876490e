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
  Alcotest.(check bool) "removed a resident block" true (Sa.remove c 2);
  Alcotest.(check bool) "absent the second time" false (Sa.remove c 2);
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

(* [take] is [find_way] then [remove] in one probe: after the same
   random inserts, hits and takes, both arrays return the same payloads
   and save the same bytes (tick, way positions, recency). *)
let test_sa_take_is_find_way_remove () =
  let module B = Warden_util.Bin in
  let image c =
    let w = B.writer () in
    Sa.save c w ~elt:B.w_int;
    B.contents w
  in
  let a = mk_sa ~sets:2 ~ways:4 and b = mk_sa ~sets:2 ~ways:4 in
  let seed = ref 0x5EED in
  let rand n =
    seed := (!seed * 0x2545F4914F6CDD1D) + 0x1234567;
    (!seed lsr 17) mod n
  in
  for i = 1 to 2000 do
    let blk = rand 12 in
    match rand 3 with
    | 0 ->
        List.iter (fun c -> ignore (Sa.insert c blk (blk + i))) [ a; b ]
    | 1 -> List.iter (fun c -> ignore (Sa.find_way c blk)) [ a; b ]
    | _ ->
        let w = Sa.find_way a blk in
        let want = if Sa.hit w then Sa.value a w else -1 in
        ignore (Sa.remove a blk : bool);
        Alcotest.(check int) (Printf.sprintf "step %d: payload" i) want
          (Sa.take b blk);
        if not (Bytes.equal (image a) (image b)) then
          Alcotest.failf "step %d: the arrays differ after taking %d" i blk
  done

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
  Alcotest.(check bool) "removed" true (Sa.remove c 9);
  Alcotest.(check bool) "gone" false (Sa.mem c 9);
  Alcotest.(check (option int)) "reinsert into empty way" None
    (Option.map fst (Sa.insert c 5 51));
  Alcotest.(check (option int)) "find after round trip" (Some 51) (find c 5)

(* A resident way's recency lies between 1 and the clock: anything else
   is refused, and the target is left as it was. *)
let test_sa_restore_rejects_bad_recency () =
  let module B = Warden_util.Bin in
  let image lu =
    let w = B.writer () in
    List.iter (B.w_int w) [ 2; 2; 7; 1; 0; 0; 4; lu; 99 ];
    B.reader (B.contents w)
  in
  List.iter
    (fun (lu, msg) ->
      let c = mk_sa ~sets:2 ~ways:2 in
      ignore (Sa.insert c 5 50);
      Alcotest.check_raises
        (Printf.sprintf "recency %d" lu)
        (B.Corrupt ("Bin: Sa: " ^ msg))
        (fun () -> Sa.restore c (image lu) ~elt:B.r_int);
      Alcotest.(check (option int)) "target unchanged" (Some 50) (find c 5))
    [
      (8, "recency ahead of the clock");
      (0, "bad recency");
      (-3, "bad recency");
    ];
  let c = mk_sa ~sets:2 ~ways:2 in
  Sa.restore c (image 7) ~elt:B.r_int;
  Alcotest.(check (option int)) "recency at the clock accepted" (Some 99)
    (find c 4)

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

(* --- Csa (LLC tag store) ------------------------------------------------ *)

module B = Warden_util.Bin

let to_bytes save =
  let w = B.writer () in
  save w;
  B.contents w

let csa_bytes c = to_bytes (fun w -> Csa.save c w ~elt:B.w_int)

let resident_list iter c =
  let l = ref [] in
  iter c (fun blk p -> l := (blk, p) :: !l);
  List.rev !l

(* Csa against Sa with payloads, which has the same per-set semantics:
   random insert/find/peek over a block range three times the capacity,
   so sets overfill and hits rotate. Every return value, the (set, way)
   visit order and the save bytes (Sa's and Csa's formats are one) agree
   throughout; a copy taken midway is untouched by later operations; and
   every so often the cache is replaced by a save -> restore round trip
   of itself, which must carry on identically. *)
let test_csa_matches_sa () =
  let rng = Random.State.make [| 19 |] in
  let calls = ref 0 in
  List.iter
    (fun (sets, ways) ->
      let sa = mk_sa ~sets ~ways in
      let csa = ref (Csa.create ~sets ~ways) in
      let span = 3 * sets * ways in
      let snapshot = ref None in
      for step = 1 to 3000 do
        let blk = Random.State.int rng span in
        let what = Printf.sprintf "%dx%d step %d blk %d" sets ways step blk in
        (match Random.State.int rng 3 with
        | 0 ->
            let p = Random.State.int rng 1_000_000 in
            let before = Sa.peek_way sa blk in
            let old = if Sa.hit before then Sa.value sa before else -1 in
            let got = Csa.insert !csa blk p in
            let evicted = Sa.insert sa blk p in
            let expected = if Sa.hit before then Some (blk, old) else evicted in
            Alcotest.(check (option (pair int int)))
              ("insert " ^ what) expected got
        | 1 ->
            Alcotest.(check int) ("find " ^ what)
              (Option.value (find sa blk) ~default:(-1))
              (Csa.find !csa blk)
        | _ ->
            let w = Sa.peek_way sa blk in
            Alcotest.(check int) ("peek " ^ what)
              (if Sa.hit w then Sa.value sa w else -1)
              (Csa.peek !csa blk));
        incr calls;
        Alcotest.(check (list (pair int int))) ("iter " ^ what)
          (resident_list Sa.iter sa) (resident_list Csa.iter !csa);
        if step mod 50 = 0 then begin
          let bytes = csa_bytes !csa in
          Alcotest.(check bool) ("save = sa's save " ^ what) true
            (Bytes.equal (to_bytes (fun w -> Sa.save sa w ~elt:B.w_int)) bytes);
          (match !snapshot with
          | Some (copy, at) ->
              Alcotest.(check bool) ("copy independent " ^ what) true
                (Bytes.equal at (csa_bytes copy))
          | None -> ());
          snapshot := Some (Csa.copy !csa, bytes);
          if step mod 200 = 0 then begin
            let restored = Csa.create ~sets ~ways in
            Csa.restore restored (B.reader bytes) ~elt:B.r_int;
            Alcotest.(check bool) ("restore round trip " ^ what) true
              (Bytes.equal bytes (csa_bytes restored));
            Alcotest.(check int) ("restored chunks " ^ what)
              (Csa.chunks_allocated !csa)
              (Csa.chunks_allocated restored);
            csa := restored
          end
        end
      done)
    [ (8, 2); (8, 3); (8, 4); (128, 2) ];
  Alcotest.(check bool) "at least 10k calls" true (!calls >= 10_000)

(* A hand-built snapshot of an 8-set, 2-way cache in the format Sa and
   Csa share: [(set, way, blk, last_use)] entries, each with a payload,
   under a line count of [count] (by default, the entries'). *)
let ways_image ?(tick = 9) ?count entries =
  to_bytes (fun w ->
      List.iter (B.w_int w)
        [ 8; 2; tick; Option.value count ~default:(List.length entries) ];
      List.iteri
        (fun i (set, way, blk, lu) ->
          List.iter (B.w_int w) [ set; way; blk; lu; 100 + i ])
        entries)

(* Malformed snapshots both arrays refuse by the same name. *)
let malformed_ways =
  [
    ("way out of range", ways_image [ (0, 2, 8, 1) ]);
    ("way out of range", ways_image [ (0, -1, 8, 1) ]);
    ("set out of range", ways_image [ (8, 0, 8, 1) ]);
    ("block outside its set", ways_image [ (0, 0, 3, 1) ]);
    ("block outside its set", ways_image [ (0, 0, -5, 1) ]);
    ("duplicate block", ways_image [ (0, 0, 8, 1); (0, 1, 8, 2) ]);
    ("ways not in (set, way) order", ways_image [ (1, 0, 9, 1); (0, 0, 8, 2) ]);
    ( "ways not in (set, way) order",
      ways_image [ (0, 0, 8, 1); (0, 0, 16, 2) ] );
    ("recency ahead of the clock", ways_image ~tick:3 [ (0, 0, 8, 4) ]);
    ("bad recency", ways_image [ (0, 0, 8, 0) ]);
    ("bad way count", ways_image ~count:17 []);
    ("bad way count", ways_image ~count:(-1) []);
  ]

(* [restore] must refuse [bytes] naming [name], leaving [target]'s save
   bytes as they were. *)
let refuses ~prefix ~save ~restore name bytes =
  let before = to_bytes save in
  (match restore (B.reader bytes) with
  | () -> Alcotest.failf "accepted: %s" name
  | exception B.Corrupt msg ->
      if msg <> "Bin: " ^ prefix ^ ": " ^ name then
        Alcotest.failf "%s: raised %S" name msg);
  Alcotest.(check bool) ("target unchanged: " ^ name) true
    (Bytes.equal before (to_bytes save))

let test_sa_restore_rejects () =
  List.iter
    (fun (name, bytes) ->
      let c = mk_sa ~sets:8 ~ways:2 in
      ignore (Sa.insert c 16 7 : _ option);
      refuses ~prefix:"Sa"
        ~save:(fun w -> Sa.save c w ~elt:B.w_int)
        ~restore:(fun r -> Sa.restore c r ~elt:B.r_int)
        name bytes)
    malformed_ways;
  (* A hole before a filled way is Sa state: [take] and [remove] make
     them. *)
  let c = mk_sa ~sets:8 ~ways:2 in
  Sa.restore c (B.reader (ways_image [ (1, 1, 9, 1) ])) ~elt:B.r_int;
  Alcotest.(check (option int)) "a way after a hole restores" (Some 100)
    (find c 9)

(* Malformed snapshots fail with a named error and leave the target as
   it was. Csa keeps each set's filled ways a prefix, which Sa need not. *)
let test_csa_restore_rejects () =
  List.iter
    (fun (name, bytes) ->
      let c = Csa.create ~sets:8 ~ways:2 in
      ignore (Csa.insert c 16 7 : _ option);
      refuses ~prefix:"Csa"
        ~save:(fun w -> Csa.save c w ~elt:B.w_int)
        ~restore:(fun r -> Csa.restore c r ~elt:B.r_int)
        name bytes)
    (("filled ways not a prefix", ways_image [ (1, 1, 9, 1) ])
    :: malformed_ways);
  (* Too few payloads: the stream ends inside the last entry. *)
  let bytes = ways_image [ (0, 0, 8, 1); (0, 1, 16, 2) ] in
  let c = Csa.create ~sets:8 ~ways:2 in
  (match
     Csa.restore c (B.reader (Bytes.sub bytes 0 (Bytes.length bytes - 8)))
       ~elt:B.r_int
   with
  | () -> Alcotest.fail "accepted a missing payload"
  | exception B.Corrupt _ -> ());
  Alcotest.(check int) "target unchanged: missing payload" 0
    (Csa.chunks_allocated c)

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

(* --- Store against a naive model ----------------------------------------- *)

(* The model: a Hashtbl from each written block to its 64 bytes. *)
let zero_line = Bytes.make Addr.block_size '\000'
let page_blocks = 65536 / Addr.block_size

let model_read m blk =
  Option.value (Hashtbl.find_opt m blk) ~default:zero_line

let model_write m blk =
  match Hashtbl.find_opt m blk with
  | Some b -> b
  | None ->
      let b = Bytes.make Addr.block_size '\000' in
      Hashtbl.replace m blk b;
      b

(* WSNP v3's store format, encoded from the model: the line count, then
   each written block and its 64 bytes in ascending block order. *)
let model_bytes m =
  to_bytes (fun w ->
      let blks =
        List.sort compare (Hashtbl.fold (fun b _ acc -> b :: acc) m [])
      in
      B.w_int w (List.length blks);
      List.iter
        (fun blk ->
          B.w_int w blk;
          let line = Hashtbl.find m blk in
          for k = 0 to 7 do
            B.w_i64 w (Bytes.get_int64_le line (8 * k))
          done)
        blks)

let store_bytes s = to_bytes (Store.save s)

let test_store_matches_model () =
  let rng = Random.State.make [| 21 |] in
  let calls = ref 0 in
  (* Blocks in a few adjacent pages plus two distant ones; the last page
     is only ever read. *)
  let pages = [| 0; 1; 2; 77; 4099; 9000 |] in
  let random_blk () =
    (pages.(Random.State.int rng (Array.length pages)) * page_blocks)
    + Random.State.int rng page_blocks
  in
  let read_only blk = blk / page_blocks = 9000 in
  let random_mask () =
    match Random.State.int rng 4 with
    | 0 -> (0, 0)
    | 1 -> (Random.State.bits rng land 0xFFFF_FFFF, 0)
    | 2 -> (0, Random.State.bits rng land 0xFFFF_FFFF)
    | _ ->
        (Random.State.bits rng land 0xFFFF_FFFF,
         Random.State.bits rng land 0xFFFF_FFFF)
  in
  let bit lo hi i = (if i < 32 then lo lsr i else hi lsr (i - 32)) land 1 = 1 in
  let s = ref (Store.create ()) in
  let m = Hashtbl.create 64 in
  let snapshot = ref None in
  for step = 1 to 6000 do
    let blk = random_blk () in
    let what = Printf.sprintf "step %d blk %d" step blk in
    let op = Random.State.int rng 7 in
    let op = if read_only blk && op <= 3 then 4 + (op mod 3) else op in
    (match op with
    | 0 ->
        let size = [| 1; 2; 4; 8 |].(Random.State.int rng 4) in
        let addr =
          Addr.base_of_block blk + (size * Random.State.int rng (64 / size))
        in
        let v = Random.State.int64 rng Int64.max_int in
        Store.store !s addr ~size v;
        let b = model_write m blk in
        for i = 0 to size - 1 do
          Bytes.set b
            (Addr.offset_in_block addr + i)
            (Char.chr
               (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
        done
    | 1 ->
        let size = [| 1; 2; 4; 8 |].(Random.State.int rng 4) in
        let off = size * Random.State.int rng (64 / size) in
        let b = model_read m blk in
        let expect = ref 0L in
        for i = size - 1 downto 0 do
          expect :=
            Int64.logor (Int64.shift_left !expect 8)
              (Int64.of_int (Char.code (Bytes.get b (off + i))))
        done;
        Alcotest.(check int64) ("load " ^ what) !expect
          (Store.load !s (Addr.base_of_block blk + off) ~size)
    | 2 | 3 ->
        let data = Bytes.init 128 (fun _ -> Char.chr (Random.State.int rng 256)) in
        let pos = 64 * Random.State.int rng 2 in
        let lo, hi = random_mask () in
        if Random.State.bool rng then Store.write_line !s blk data ~pos ~lo ~hi
        else
          Store.write_block_masked !s blk (Bytes.sub data pos 64)
            ~mask:(Sector.to_int64 ~lo ~hi);
        if lo lor hi <> 0 then begin
          let b = model_write m blk in
          for i = 0 to 63 do
            if bit lo hi i then Bytes.set b i (Bytes.get data (pos + i))
          done
        end
    | 4 ->
        Alcotest.(check bytes) ("read_block " ^ what) (model_read m blk)
          (Store.read_block !s blk)
    | 5 ->
        let dst = Bytes.make 96 '\xEE' in
        let pos = Random.State.int rng 33 in
        Store.read_block_into !s blk dst ~pos;
        let expect = Bytes.make 96 '\xEE' in
        Bytes.blit (model_read m blk) 0 expect pos 64;
        Alcotest.(check bytes) ("read_block_into " ^ what) expect dst
    | _ ->
        Alcotest.(check bool) ("materialized " ^ what) (Hashtbl.mem m blk)
          (Store.materialized !s blk));
    incr calls;
    Alcotest.(check int) ("footprint = written lines " ^ what)
      (64 * Hashtbl.length m)
      (Store.footprint_bytes !s);
    if step mod 100 = 0 then begin
      let bytes = store_bytes !s in
      Alcotest.(check bool) ("save = the model's v3 bytes " ^ what) true
        (Bytes.equal (model_bytes m) bytes);
      (match !snapshot with
      | Some (copy, at) ->
          Alcotest.(check bool) ("copy independent " ^ what) true
            (Bytes.equal at (store_bytes copy))
      | None -> ());
      snapshot := Some (Store.copy !s, bytes);
      if step mod 500 = 0 then begin
        let restored = Store.create () in
        Store.restore restored (B.reader bytes);
        Alcotest.(check bool) ("restore round trip " ^ what) true
          (Bytes.equal bytes (store_bytes restored));
        Alcotest.(check int) ("restored footprint " ^ what)
          (Store.footprint_bytes !s)
          (Store.footprint_bytes restored);
        s := restored
      end
    end
  done;
  Alcotest.(check bool) "thousands of calls" true (!calls >= 6000)

let test_store_reads_hold_no_lines () =
  let s = Store.create () in
  Store.store s 0x10000 ~size:8 7L;
  let footprint = Store.footprint_bytes s in
  let zeros = Bytes.make 64 '\000' in
  (* Each call on an unwritten block of the written page, then on a page
     of its own that nothing else touches. *)
  List.iteri
    (fun i (name, call) ->
      List.iter
        (fun blk ->
          Alcotest.(check bytes) (name ^ " reads zero") zeros (call blk);
          Alcotest.(check bool) (name ^ " materializes nothing") false
            (Store.materialized s blk))
        [ Addr.block_of 0x10040 + i; (i + 5) * page_blocks ])
    [
      ( "load",
        fun blk ->
          let b = Bytes.make 64 '\000' in
          Bytes.set_int64_le b 0 (Store.load s (Addr.base_of_block blk) ~size:8);
          b );
      ("read_block", Store.read_block s);
      ( "read_block_into",
        fun blk ->
          let b = Bytes.make 64 '\xAA' in
          Store.read_block_into s blk b ~pos:0;
          b );
      ( "empty-mask write_line",
        fun blk ->
          Store.write_line s blk (Bytes.make 64 'x') ~pos:0 ~lo:0 ~hi:0;
          if Store.materialized s blk then Bytes.make 64 'x' else zeros );
    ];
  Alcotest.(check int) "no line added" footprint (Store.footprint_bytes s);
  Alcotest.(check int) "one line per written block" 64 footprint;
  (* A page read while unwritten and then written reads its data back,
     at once and after a lookup of another page. *)
  let late = 40 * page_blocks in
  ignore (Store.read_block s late : Bytes.t);
  Store.store s (Addr.base_of_block late) ~size:8 3L;
  Alcotest.(check int64) "a page written after a read" 3L
    (Store.load s (Addr.base_of_block late) ~size:8);
  ignore (Store.read_block s (Addr.block_of 0x10000) : Bytes.t);
  Alcotest.(check int64) "and after another page" 3L
    (Store.load s (Addr.base_of_block late) ~size:8);
  let m = Hashtbl.create 2 in
  Bytes.set_int64_le (model_write m late) 0 3L;
  Bytes.set_int64_le (model_write m (Addr.block_of 0x10000)) 0 7L;
  Alcotest.(check bool) "the snapshot holds the written lines alone" true
    (Bytes.equal (model_bytes m) (store_bytes s))

(* Equal contents save equal bytes, whatever order the lines were written
   in, and so does a store restored from those bytes. *)
let test_store_canonical_bytes () =
  let writes =
    List.init 300 (fun i -> ((i * 7919 * 64) + (8 * (i mod 8)), Int64.of_int i))
  in
  let build ws =
    let s = Store.create () in
    List.iter (fun (a, v) -> Store.store s a ~size:8 v) ws;
    s
  in
  let forward = build writes and backward = build (List.rev writes) in
  let restored = Store.create () in
  Store.restore restored (B.reader (store_bytes backward));
  Alcotest.(check bool) "reversed writes save the same bytes" true
    (Bytes.equal (store_bytes forward) (store_bytes backward));
  Alcotest.(check bool) "a restored store saves the same bytes" true
    (Bytes.equal (store_bytes forward) (store_bytes restored))

(* A write high in the address space costs its line, not its address. *)
let test_store_far_write () =
  let far = 1 lsl 41 in
  Gc.compact ();
  let heap () = (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) in
  let before = heap () in
  let s = Store.create () in
  Store.store s far ~size:8 0x5EEDL;
  Store.store s (far + (1 lsl 30)) ~size:4 7L;
  let bytes = store_bytes s in
  Alcotest.(check int) "footprint: two lines" 128 (Store.footprint_bytes s);
  Alcotest.(check bool) "save under 1 KiB" true (Bytes.length bytes < 1024);
  Alcotest.(check bool) "major heap grew under 1 MiB" true
    (8 * (heap () - before) < 1 lsl 20);
  let back = Store.create () in
  Store.restore back (B.reader bytes);
  Alcotest.(check int64) "far line restored" 0x5EEDL
    (Store.load back far ~size:8);
  Alcotest.(check int64) "second far line restored" 7L
    (Store.load back (far + (1 lsl 30)) ~size:4)

(* Malformed line lists are refused by name, leaving the store as it
   was. *)
let test_store_restore_rejects () =
  let image ?count blks =
    to_bytes (fun w ->
        B.w_int w (Option.value count ~default:(List.length blks));
        List.iter
          (fun blk ->
            B.w_int w blk;
            for k = 0 to 7 do
              B.w_i64 w (Int64.of_int (blk + k))
            done)
          blks)
  in
  List.iter
    (fun (name, bytes) ->
      let s = Store.create () in
      Store.store s 0 ~size:8 5L;
      refuses ~prefix:"Store" ~save:(Store.save s)
        ~restore:(Store.restore s) name bytes;
      Alcotest.(check int64) (name ^ ": store left as it was") 5L
        (Store.load s 0 ~size:8))
    [
      ("lines not ascending", image [ 9; 3 ]);
      ("block written twice", image [ 3; 3 ]);
      ("block out of range", image [ -4 ]);
      ("block out of range", image [ max_int ]);
      ("bad line count", image ~count:(-1) []);
      ("bad line count", image ~count:3 [ 1; 2 ]);
    ];
  let s = Store.create () in
  Store.restore s (B.reader (image [ 3; 1 lsl 35 ]));
  Alcotest.(check int64) "written block restored" 4L
    (Store.load s ((3 * 64) + 8) ~size:8);
  Alcotest.(check int64) "far block restored" (Int64.of_int ((1 lsl 35) + 7))
    (Store.load s ((1 lsl 41) + 56) ~size:8)

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
    Alcotest.test_case "sa take = find_way then remove" `Quick
      test_sa_take_is_find_way_remove;
    Alcotest.test_case "sa tags only" `Quick test_sa_tags_only;
    Alcotest.test_case "sa conflict round trip" `Quick
      test_sa_conflict_roundtrip;
    Alcotest.test_case "sa restore rejects bad recency" `Quick
      test_sa_restore_rejects_bad_recency;
    Alcotest.test_case "sa restore rejects malformed ways" `Quick
      test_sa_restore_rejects;
    sa_accounting;
    Alcotest.test_case "csa = sa, differential" `Quick test_csa_matches_sa;
    Alcotest.test_case "csa restore rejects malformed tables" `Quick
      test_csa_restore_rejects;
    Alcotest.test_case "linepool reuses freed slots" `Quick
      test_linepool_reuses_freed_slots;
    Alcotest.test_case "linepool views survive growth" `Quick
      test_linepool_views_survive_growth;
    Alcotest.test_case "linepool reset frees every slot" `Quick
      test_linepool_reset;
    linepool_matches_standalone;
    sector_blit_model;
    Alcotest.test_case "store = naive block model, differential" `Quick
      test_store_matches_model;
    Alcotest.test_case "store reads of unwritten memory hold no line" `Quick
      test_store_reads_hold_no_lines;
    Alcotest.test_case "store restore rejects malformed snapshots" `Quick
      test_store_restore_rejects;
    Alcotest.test_case "store saves canonical bytes" `Quick
      test_store_canonical_bytes;
    Alcotest.test_case "store write at 2^41 in constant memory" `Quick
      test_store_far_write;
  ]

let () = Alcotest.run "warden-cache" [ ("cache", suite) ]
