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

(* A snapshot whose recency array has the wrong length is refused, and
   the target is left as it was: one too long used to crash in a blit,
   one too short was accepted and left stale recency behind. *)
let test_sa_restore_rejects_bad_recency () =
  let module B = Warden_util.Bin in
  let sets = 2 and ways = 2 in
  let image ~recency =
    let w = B.writer () in
    B.w_int w sets;
    B.w_int w ways;
    B.w_int w 7;
    B.w_int_array w (Array.make (sets * ways) (-1));
    B.w_int_array w (Array.make recency 0);
    B.reader (B.contents w)
  in
  List.iter
    (fun recency ->
      let c = mk_sa ~sets ~ways in
      ignore (Sa.insert c 5 50);
      Alcotest.check_raises
        (Printf.sprintf "recency of %d ways" recency)
        (B.Corrupt "Bin: Sa: bad recency")
        (fun () -> Sa.restore c (image ~recency) ~elt:B.r_int);
      Alcotest.(check (option int)) "target unchanged" (Some 50) (find c 5))
    [ (sets * ways) + 1; (sets * ways) - 1 ]

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

(* What the per-way chunk layout saved for [sa]'s state: Sa's tag and
   recency arrays cut into chunks of min(sets, 32) sets, each chunk that
   holds a block written with its index and followed by its payloads. *)
let per_way_image sa =
  let r = B.reader (to_bytes (fun w -> Sa.save sa w ~elt:B.w_int)) in
  let sets = B.r_int r and ways = B.r_int r in
  let tick = B.r_int r in
  let blks = B.r_int_array r and last_use = B.r_int_array r in
  let payloads = Array.map (fun b -> if b = -1 then -1 else B.r_int r) blks in
  let per = min sets 32 * ways in
  let held ci =
    Array.exists (fun b -> b <> -1) (Array.sub blks (ci * per) per)
  in
  let chunks = List.filter held (List.init (sets * ways / per) Fun.id) in
  to_bytes (fun w ->
      B.w_int w sets;
      B.w_int w ways;
      B.w_int w tick;
      B.w_int w (List.length chunks);
      List.iter
        (fun ci ->
          B.w_int w ci;
          B.w_int_array w (Array.sub blks (ci * per) per);
          B.w_int_array w (Array.sub last_use (ci * per) per);
          for i = ci * per to ((ci + 1) * per) - 1 do
            if blks.(i) <> -1 then B.w_int w payloads.(i)
          done)
        chunks)

(* Csa against Sa with payloads, which has the same per-set semantics:
   random insert/find/peek over a block range three times the capacity,
   so sets overfill and hits rotate. Every return value, the (set, way)
   visit order and the save bytes (against the per-way layout's) agree
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
          Alcotest.(check bool) ("save = per-way image " ^ what) true
            (Bytes.equal (per_way_image sa) bytes);
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

(* A hand-built Csa snapshot of an 8-set, 2-way cache with one chunk. *)
let csa_image ?(tick = 9) ?(ci = [ 0 ]) ?(payloads = 1) blks last_use =
  to_bytes (fun w ->
      B.w_int w 8;
      B.w_int w 2;
      B.w_int w tick;
      B.w_int w (List.length ci);
      List.iter
        (fun ci ->
          B.w_int w ci;
          B.w_int_array w blks;
          B.w_int_array w last_use;
          for i = 1 to payloads do
            B.w_int w (100 + i)
          done)
        ci)

(* [(set, way, blk, last_use)] placed in otherwise empty per-way arrays. *)
let ways_of l =
  let blks = Array.make 16 (-1) and lu = Array.make 16 0 in
  List.iter
    (fun (set, way, blk, u) ->
      blks.((set * 2) + way) <- blk;
      lu.((set * 2) + way) <- u)
    l;
  (blks, lu)

(* Malformed snapshots fail with a named error and leave the target as
   it was. The per-way layout accepted a block stored in the wrong set,
   which a later fill of its own set then held a second time. *)
let test_csa_restore_rejects () =
  let cases =
    let img ?tick ?ci ?payloads l =
      let blks, lu = ways_of l in
      csa_image ?tick ?ci ?payloads blks lu
    in
    [
      ("block outside its set", img [ (0, 0, 3, 1) ]);
      ("block outside its set", img [ (0, 0, -5, 1) ]);
      ("duplicate block", img ~payloads:2 [ (0, 0, 8, 1); (0, 1, 8, 2) ]);
      ("filled ways not a prefix", img [ (1, 1, 9, 1) ]);
      ("recency on an empty way", img [ (0, 0, 8, 1); (0, 1, -1, 4) ]);
      ("recency ahead of the clock", img ~tick:3 [ (0, 0, 8, 4) ]);
      ("bad chunk index", img ~ci:[ 1 ] [ (0, 0, 8, 1) ]);
      ("bad chunk count", img ~ci:[ 0; 0 ] [ (0, 0, 8, 1) ]);
      ("bad chunk arrays", csa_image (Array.make 15 (-1)) (Array.make 16 0));
    ]
  in
  (* The chunk index and count cases: one chunk for 8 sets, so index 1 is
     out of range and a second chunk is one too many. *)
  List.iter
    (fun (name, bytes) ->
      let c = Csa.create ~sets:8 ~ways:2 in
      ignore (Csa.insert c 16 7 : _ option);
      let before = csa_bytes c in
      (match Csa.restore c (B.reader bytes) ~elt:B.r_int with
      | () -> Alcotest.failf "accepted: %s" name
      | exception B.Corrupt msg ->
          let named =
            msg = "Bin: Csa: " ^ name
            || (name = "bad chunk count" && msg = "Bin: Csa: bad chunk index")
          in
          if not named then Alcotest.failf "%s: raised %S" name msg);
      Alcotest.(check bool) ("target unchanged: " ^ name) true
        (Bytes.equal before (csa_bytes c)))
    cases;
  (* Too few payloads: the stream ends inside the chunk. *)
  let blks, lu = ways_of [ (0, 0, 8, 1); (0, 1, 16, 2) ] in
  let c = Csa.create ~sets:8 ~ways:2 in
  (match
     Csa.restore c (B.reader (csa_image ~payloads:1 blks lu)) ~elt:B.r_int
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

(* The model: a Hashtbl of 64-byte blocks, the written-block set, and the
   set of pages any call touched (reads included, since every touched
   page is in the snapshot). *)
type store_model = {
  mblocks : (int, Bytes.t) Hashtbl.t;
  mutable mwritten : Warden_util.Bitset.t;
  mpages : (int, unit) Hashtbl.t;
}

let page_bytes = 65536
let page_blocks = page_bytes / Addr.block_size

let model_block m blk =
  Hashtbl.replace m.mpages (blk / page_blocks) ();
  match Hashtbl.find_opt m.mblocks blk with
  | Some b -> b
  | None ->
      let b = Bytes.make Addr.block_size '\000' in
      Hashtbl.replace m.mblocks blk b;
      b

(* The snapshot bytes of the 64 KiB-page store this layout replaced: the
   touched pages as (id, 64 KiB image) sorted by id, then the
   written-block set. *)
let old_page_layout m =
  to_bytes (fun w ->
      let ids =
        List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) m.mpages [])
      in
      B.w_int w (List.length ids);
      List.iter
        (fun id ->
          B.w_int w id;
          let image = Bytes.make page_bytes '\000' in
          for i = 0 to page_blocks - 1 do
            match Hashtbl.find_opt m.mblocks ((id * page_blocks) + i) with
            | Some b -> Bytes.blit b 0 image (i * Addr.block_size) Addr.block_size
            | None -> ()
          done;
          B.w_bytes w image)
        ids;
      Warden_util.Bitset.save m.mwritten w)

let store_bytes s = to_bytes (Store.save s)

let test_store_matches_model () =
  let rng = Random.State.make [| 21 |] in
  let calls = ref 0 in
  (* Blocks in a few adjacent pages plus two distant ones; the last page
     is only ever read, and must still be in the snapshot. *)
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
  let m =
    {
      mblocks = Hashtbl.create 64;
      mwritten = Warden_util.Bitset.create ();
      mpages = Hashtbl.create 8;
    }
  in
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
        Warden_util.Bitset.add m.mwritten blk;
        let b = model_block m blk in
        for i = 0 to size - 1 do
          Bytes.set b
            (Addr.offset_in_block addr + i)
            (Char.chr
               (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
        done
    | 1 ->
        let size = [| 1; 2; 4; 8 |].(Random.State.int rng 4) in
        let off = size * Random.State.int rng (64 / size) in
        let b = model_block m blk in
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
        if lo lor hi <> 0 then Warden_util.Bitset.add m.mwritten blk;
        let b = model_block m blk in
        for i = 0 to 63 do
          if bit lo hi i then Bytes.set b i (Bytes.get data (pos + i))
        done
    | 4 ->
        Alcotest.(check bytes) ("read_block " ^ what) (model_block m blk)
          (Store.read_block !s blk)
    | 5 ->
        let dst = Bytes.make 96 '\xEE' in
        let pos = Random.State.int rng 33 in
        Store.read_block_into !s blk dst ~pos;
        let expect = Bytes.make 96 '\xEE' in
        Bytes.blit (model_block m blk) 0 expect pos 64;
        Alcotest.(check bytes) ("read_block_into " ^ what) expect dst
    | _ ->
        Alcotest.(check bool) ("materialized " ^ what)
          (Warden_util.Bitset.mem m.mwritten blk)
          (Store.materialized !s blk));
    incr calls;
    Alcotest.(check int) ("footprint = written lines " ^ what)
      (64 * Warden_util.Bitset.cardinal m.mwritten)
      (Store.footprint_bytes !s);
    if step mod 100 = 0 then begin
      let bytes = store_bytes !s in
      Alcotest.(check bool) ("save = 64 KiB-page layout " ^ what) true
        (Bytes.equal (old_page_layout m) bytes);
      (match !snapshot with
      | Some (copy, at) ->
          Alcotest.(check bool) ("copy independent " ^ what) true
            (Bytes.equal at (store_bytes copy))
      | None -> ());
      snapshot := Some (Store.copy !s, bytes);
      if step mod 500 = 0 then begin
        let restored = Store.create () in
        Store.restore restored (B.reader bytes);
        (* A fresh store's restore re-adds the written set in ascending
           order, which may shorten its word array. *)
        let rebuilt = Warden_util.Bitset.create () in
        Warden_util.Bitset.iter m.mwritten (Warden_util.Bitset.add rebuilt);
        m.mwritten <- rebuilt;
        Alcotest.(check bool) ("restore round trip " ^ what) true
          (Bytes.equal (old_page_layout m) (store_bytes restored));
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
  let m =
    {
      mblocks = Hashtbl.create 8;
      mwritten = Warden_util.Bitset.create ();
      mpages = Hashtbl.create 8;
    }
  in
  Store.store s 0x10000 ~size:8 7L;
  Warden_util.Bitset.add m.mwritten (Addr.block_of 0x10000);
  Bytes.set_int64_le (model_block m (Addr.block_of 0x10000)) 0 7L;
  let footprint = Store.footprint_bytes s in
  let zeros = Bytes.make 64 '\000' in
  (* Each call on an unwritten block of the written page, then on a page
     of its own that nothing else touches. *)
  List.iteri
    (fun i (name, call) ->
      List.iter
        (fun blk ->
          ignore (model_block m blk : Bytes.t);
          Alcotest.(check bytes) (name ^ " reads zero") zeros (call blk))
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
  Alcotest.(check bool) "pages touched only by reads are snapshotted" true
    (Bytes.equal (old_page_layout m) (store_bytes s))

let test_store_restore_rejects () =
  let image = Bytes.make page_bytes '\000' in
  let snap ?(written = []) ~data () =
    Bytes.fill image 0 page_bytes '\000';
    if data then Bytes.set image 130 'x';
    let ws = Warden_util.Bitset.create () in
    List.iter (Warden_util.Bitset.add ws) written;
    to_bytes (fun w ->
        B.w_int w 1;
        B.w_int w 3;
        B.w_bytes w image;
        Warden_util.Bitset.save ws w)
  in
  let rejects what bytes =
    let s = Store.create () in
    Store.store s 0 ~size:8 5L;
    (match Store.restore s (B.reader bytes) with
    | () -> Alcotest.failf "%s: accepted" what
    | exception B.Corrupt _ -> ());
    Alcotest.(check int64) (what ^ ": store left as it was") 5L
      (Store.load s 0 ~size:8)
  in
  rejects "data in a never-written block" (snap ~data:true ());
  rejects "written block outside the page set"
    (snap ~written:[ (3 * page_blocks) + 2; 5 ] ~data:true ());
  let s = Store.create () in
  Store.restore s (B.reader (snap ~written:[ (3 * page_blocks) + 2 ] ~data:true ()));
  Alcotest.(check int64) "written block restored" (Int64.of_int (Char.code 'x'))
    (Store.load s ((3 * page_bytes) + 130) ~size:1)

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
    Alcotest.test_case "sa restore rejects bad recency" `Quick
      test_sa_restore_rejects_bad_recency;
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
  ]

let () = Alcotest.run "warden-cache" [ ("cache", suite) ]
