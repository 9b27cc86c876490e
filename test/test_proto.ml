(* White-box protocol tests on the production memory system. Each row of
   a protocol's scenario table runs a sequence of thread operations on a
   fresh [Memsys] whose caches hold one set of two ways ([World.shrink]),
   and after each operation checks what the row names: the directory's
   view of a block (the Fig. 5 FSA, transition by transition), protocol
   counters, private, LLC and memory bytes, and latencies. The memory
   system's own audit ([Memsys.check_invariants]) must hold after every
   operation. *)

open Warden_mem
open Warden_cache
open Warden_machine
open Warden_proto
open Warden_proto.States
module Memsys = Warden_sim.Memsys
module Llc = Warden_sim.Llc
module World = Warden_check.World

(* ---- scenario tables --------------------------------------------------- *)

(* An operation runs on the memory system and returns its latency, the
   value a load read, and whether a region add or an eviction took
   effect. Regions are given in blocks, [lo] to [hi) exclusive. *)
let thread ms core = core * (Memsys.config ms).Config.threads_per_core
let addr blk off = Addr.base_of_block blk + off

let load ?(off = 0) ?(size = 8) core blk ms =
  let into = Bytes.create 8 in
  let lat =
    Memsys.access_load ms ~thread:(thread ms core) (addr blk off) ~size into
  in
  (lat, Some (Bytes.get_int64_le into 0), true)

let store ?(off = 0) ?(size = 8) core blk v ms =
  let thread = thread ms core in
  (Memsys.access_store ms ~thread (addr blk off) ~size v, None, true)

let region_add lo hi ms =
  (0, None, Memsys.region_add ms ~thread:0 ~lo:(addr lo 0) ~hi:(addr hi 0))

let region_remove lo hi ms =
  let lat = Memsys.region_remove ms ~thread:0 ~lo:(addr lo 0) ~hi:(addr hi 0) in
  (lat, None, true)

let evict core blk ms = (0, None, Memsys.evict ms ~thread:(thread ms core) ~blk)
let ( => ) op expects = (op, expects)

(* Where a data expectation reads: a core's private copy, the LLC line at
   the block's home, or memory ([Memsys.peek]). *)
type place = Copy of int | Shared | Memory

type expect =
  | Dir of int * Protocol.block_view (* the directory's view of a block *)
  | Holds of int * int * pstate option (* core, block: its copy's state *)
  | Data of { place : place; blk : int; off : int; size : int; v : int64 }
  | Stats of (string * int) list
      (* [Stream.stats_text] counters, counted since the row began *)
  | Value of int64 (* what this load read *)
  | Latency of int
  | Slower_than of int (* this operation's latency exceeds step [i]'s *)
  | Accepted of bool (* a region add or an eviction took effect *)
  | Ward of int * bool (* the block lies in an active WARD region *)

let view ?(owner = -1) ?(wmulti = false) st sharers =
  {
    Protocol.bv_state = st;
    bv_owner = owner;
    bv_sharers = sharers;
    bv_wmulti = wmulti;
  }

let dir blk v = Dir (blk, v)
let d_i = Protocol.invalid_view
let d_e o = view ~owner:o D_E []
let d_m o = view ~owner:o D_M []
let d_s cores = view D_S cores
let d_w ?(multi = false) cores = view ~wmulti:multi D_W cores
let holds core blk st = Holds (core, blk, Some st)
let absent core blk = Holds (core, blk, None)
let data place ?(off = 0) ?(size = 8) blk v = Data { place; blk; off; size; v }
let priv core = data (Copy core)
let llc = data Shared
let mem = data Memory

let counter ms name =
  String.split_on_char '\n' (Warden_trace.Stream.stats_text ms)
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ k; v ] when k = name -> int_of_string_opt v
         | _ -> None)

(* Two ways per set: a third block in one core's set, or in one socket's
   LLC slice, takes a victim. The rest is the dual-socket machine. *)
let machine () = World.shrink (Config.dual_socket ()) ~blks:2
let reconcile_per_block = (machine ()).Config.reconcile_per_block
let view_t = Alcotest.testable Protocol.pp_block_view ( = )
let pstate_t = Alcotest.testable States.pp_pstate ( = )

let run ~mk ?(cfg = machine ()) steps () =
  let ms = Memsys.create_with cfg ~mk in
  let proto = Memsys.protocol ms in
  let copy core blk = (Protocol.fabric proto).Fabric.peek_priv ~core ~blk in
  let lats = Array.make (List.length steps) 0 in
  List.iteri
    (fun i (op, expects) ->
      let latency, loaded, accepted = op ms in
      lats.(i) <- latency;
      let at fmt = Printf.ksprintf (Printf.sprintf "step %d: %s" i) fmt in
      (match Memsys.check_invariants ms with
      | Ok () -> ()
      | Error e -> Alcotest.fail (at "invariants: %s" e));
      List.iter
        (function
          | Dir (blk, v) ->
              Alcotest.check view_t (at "directory, block %d" blk) v
                (Protocol.observe proto ~blk)
          | Holds (core, blk, st) ->
              Alcotest.(check (option pstate_t))
                (at "core %d's copy of block %d" core blk)
                st
                (Option.map (fun p -> p.Fabric.state) (copy core blk))
          | Data { place; blk; off; size; v } ->
              let read = Option.map (fun l -> Linedata.load l ~off ~size) in
              let what, got =
                match place with
                | Copy c ->
                    ( Printf.sprintf "core %d's copy" c,
                      read (Option.map (fun p -> p.Fabric.data) (copy c blk)) )
                | Shared ->
                    ( "the LLC line",
                      read
                        (Llc.peek (Memsys.llc ms)
                           ~socket:(Config.home_socket cfg blk)
                           ~blk) )
                | Memory ->
                    ("memory", Some (Memsys.peek ms (addr blk off) ~size))
              in
              Alcotest.(check (option int64))
                (at "%s of block %d, bytes %d+%d" what blk off size)
                (Some v) got
          | Stats counts ->
              List.iter
                (fun (name, n) ->
                  Alcotest.(check (option int)) (at "%s" name) (Some n)
                    (counter ms name))
                counts
          | Value v ->
              Alcotest.(check (option int64)) (at "loaded") (Some v) loaded
          | Latency n -> Alcotest.(check int) (at "latency") n latency
          | Slower_than j ->
              if latency <= lats.(j) then
                Alcotest.fail
                  (at "latency %d not above step %d's %d" latency j lats.(j))
          | Accepted b -> Alcotest.(check bool) (at "accepted") b accepted
          | Ward (blk, b) ->
              Alcotest.(check bool) (at "block %d in a WARD region" blk) b
                (Protocol.is_ward proto ~blk))
        expects)
    steps

(* ---- MESI ------------------------------------------------------------------ *)

(* Blocks are homed on socket [blk mod 2]; cores 0-11 sit on socket 0 and
   12-23 on socket 1. *)
let mesi_rows =
  [
    ( "read grants E",
      [
        load 0 5
        => [ holds 0 5 P_E; dir 5 (d_e 0); Stats [ ("invalidations", 0) ] ];
      ] );
    ("write grants M", [ store 3 9 1L => [ holds 3 9 P_M; dir 9 (d_m 3) ] ]);
    ( "RAW downgrades owner",
      [
        store 0 1 77L => [];
        (* The owner's dirty bytes reach the LLC on the way. *)
        load 1 1
        => [
             Value 77L;
             holds 0 1 P_S;
             holds 1 1 P_S;
             dir 1 (d_s [ 0; 1 ]);
             llc 1 77L;
             Stats [ ("downgrades", 2); ("fwds", 1); ("writebacks", 1) ];
           ];
      ] );
    ( "upgrade invalidates sharers",
      [
        store 0 2 1L => [];
        load 1 2 => [];
        load 2 2 => [ dir 2 (d_s [ 0; 1; 2 ]); Stats [ ("invalidations", 0) ] ];
        (* Each invalidated copy sat in L1 and L2. *)
        store 1 2 ~off:8 5L
        => [
             absent 0 2;
             absent 2 2;
             holds 1 2 P_M;
             dir 2 (d_m 1);
             priv 1 2 1L;
             priv 1 2 ~off:8 5L;
             Stats [ ("invalidations", 4) ];
           ];
      ] );
    ( "M-to-M transfer",
      [
        store 0 3 ~off:8 123L => [];
        store 5 3 1L
        => [
             absent 0 3;
             dir 3 (d_m 5);
             priv 5 3 ~off:8 123L;
             priv 5 3 1L;
             Stats [ ("fwds", 1); ("invalidations", 2); ("writebacks", 0) ];
           ];
      ] );
    ( "cross-socket latency",
      [
        store 0 4 1L => [];
        load 1 4 => [];
        store 0 6 1L => [];
        load 13 6 => [ Slower_than 1 ];
      ] );
    ( "eviction",
      [
        store 0 7 55L => [];
        evict 0 7
        => [ Accepted true; absent 0 7; dir 7 d_i; llc 7 55L; mem 7 0L;
             Stats [ ("writebacks", 1) ] ];
        load 2 7 => [ Value 55L; holds 2 7 P_E; dir 7 (d_e 2) ];
      ] );
    (* The rows of a set-associative cache test plan. *)
    ( "cold miss",
      [
        load 0 8
        => [ Value 0L; holds 0 8 P_E;
             Stats [ ("zero_fills", 1); ("dram_reads", 0); ("dir_accesses", 1) ]
           ];
        (* A private hit: no directory access. *)
        load 0 8 => [ Value 0L; Stats [ ("dir_accesses", 1) ] ];
      ] );
    ( "conflict victim",
      [
        load 0 0 => [];
        load 0 1 => [];
        load 0 2
        => [ absent 0 0; dir 0 d_i; holds 0 1 P_E; holds 0 2 P_E;
             Stats [ ("writebacks", 0) ] ];
      ] );
    ( "dirty-victim writeback",
      [
        store 0 0 42L => [];
        load 0 1 => [];
        load 0 2
        => [ absent 0 0; dir 0 d_i; llc 0 42L; mem 0 0L;
             Stats [ ("writebacks", 1) ] ];
      ] );
    ( "read after eviction",
      [
        store 0 0 42L => [];
        load 0 1 => [];
        load 0 2 => [ llc 0 42L; mem 0 0L ];
        (* Two more socket-0 blocks push block 0 out of its LLC slice. *)
        load 0 4 => [ llc 0 42L ];
        load 0 6 => [ mem 0 42L ];
        load 1 0
        => [ Value 42L; holds 1 0 P_E;
             Stats [ ("dram_reads", 1); ("l3_hits", 0) ] ];
      ] );
  ]

(* ---- WARDen ----------------------------------------------------------------- *)

(* Blocks 16 and 17 form the WARD region of most rows. *)
let warden_rows =
  [
    ( "region add/remove",
      [
        region_add 16 18
        => [ Accepted true; Ward (15, false); Ward (16, true); Ward (17, true);
             Ward (18, false) ];
        region_remove 16 18 => [ Ward (16, false); Latency 0 ];
      ] );
    ( "disables coherence in regions",
      [
        region_add 16 18 => [];
        store 0 16 1L => [];
        (* Core 1 is filled from the LLC, without core 0's store. *)
        store 1 16 ~off:8 2L
        => [ holds 0 16 P_M; holds 1 16 P_M; dir 16 (d_w ~multi:true [ 0; 1 ]);
             priv 0 16 1L; priv 1 16 0L; priv 1 16 ~off:8 2L;
             Stats
               [ ("invalidations", 0); ("downgrades", 0); ("ward_grants", 2) ]
           ];
      ] );
    ( "false-sharing reconciliation",
      [
        region_add 16 18 => [];
        store 0 16 ~size:1 0xAAL => [];
        store 1 16 ~off:1 ~size:1 0xBBL => [];
        region_remove 16 18
        => [ absent 0 16; absent 1 16; dir 16 d_i; llc 16 ~size:2 0xBBAAL;
             Latency reconcile_per_block;
             Stats [ ("recon_blocks", 1); ("recon_flushes", 4) ] ];
      ] );
    ( "true-sharing last writer",
      [
        region_add 16 18 => [];
        store 0 16 ~off:4 ~size:1 0x11L => [];
        store 2 16 ~off:4 ~size:1 0x22L => [];
        (* Merged in ascending core order: core 2's byte persists. *)
        region_remove 16 18 => [ llc 16 ~off:4 ~size:1 0x22L ];
      ] );
    ( "sole holder retained",
      [
        region_add 16 18 => [];
        store 1 16 99L => [ dir 16 (d_w [ 1 ]) ];
        (* The dirty bytes are written back; the copy stays as clean S. *)
        region_remove 16 18
        => [ holds 1 16 P_S; priv 1 16 99L; dir 16 (d_s [ 1 ]); llc 16 99L;
             Latency reconcile_per_block; Stats [ ("recon_flushes", 2) ] ];
      ] );
    ( "legacy path is MESI",
      [
        region_add 16 18 => [];
        store 0 48 5L => [];
        load 1 48
        => [ Value 5L; dir 48 (d_s [ 0; 1 ]);
             Stats [ ("downgrades", 2); ("ward_grants", 0) ] ];
      ] );
    ( "W victim merges its bytes",
      [
        region_add 16 18 => [];
        store 0 16 7L => [];
        load 0 0 => [];
        load 0 1
        => [ absent 0 16; dir 16 (d_w []); llc 16 7L;
             Stats [ ("writebacks", 1) ] ];
        region_remove 16 18
        => [ dir 16 d_i; Latency 0; Stats [ ("recon_blocks", 1) ] ];
      ] );
    ( "remove unknown",
      [ region_remove 160 176 => [ Latency 0; Stats [ ("recon_blocks", 0) ] ] ]
    );
  ]

(* A two-entry region CAM. *)
let cam_row =
  ( "CAM capacity",
    [
      region_add 0 1 => [ Accepted true ];
      region_add 2 3 => [ Accepted true ];
      region_add 4 5 => [ Accepted false; Stats [ ("ward_rejects", 1) ] ];
      region_remove 0 1 => [];
      region_add 4 5 => [ Accepted true ];
    ] )

(* ---- Dirstate --------------------------------------------------------------- *)

(* Past 62 cores each entry keeps one sharer word per socket (DESIGN.md
   §14). The set must survive rehashes and copies with ascending
   iteration order intact. *)
let test_dirstate_socket_words () =
  let dir = Dirstate.create ~sockets:8 ~cores_per_socket:12 () in
  let e = Dirstate.entry dir 11 in
  Dirstate.set_state dir e States.D_S;
  List.iter (Dirstate.sharer_add dir e) [ 3; 62; 63; 95 ];
  Alcotest.(check (list int)) "ascending across socket boundaries"
    [ 3; 62; 63; 95 ] (Dirstate.sharers dir e);
  Alcotest.(check int) "count" 4 (Dirstate.sharer_count dir e);
  Alcotest.(check bool) "mem high core" true (Dirstate.sharer_mem dir e 95);
  Alcotest.(check bool) "not mem the lane's twin in socket 0" false
    (Dirstate.sharer_mem dir e (95 mod 12));
  (* Force a rehash: the sharer words move with their slot. *)
  for b = 1000 to 1000 + 5000 do
    ignore (Dirstate.entry dir b)
  done;
  let e = Dirstate.entry dir 11 in
  Alcotest.(check (list int)) "sharers survive rehash" [ 3; 62; 63; 95 ]
    (Dirstate.sharers dir e);
  (* Copies must not share sharer words with the original. *)
  let snap = Dirstate.copy dir in
  Dirstate.sharer_remove dir e 95;
  Dirstate.sharer_remove dir e 62;
  Alcotest.(check (list int)) "removal crosses socket boundaries" [ 3; 63 ]
    (Dirstate.sharers dir e);
  Alcotest.(check (list int)) "copy unaffected" [ 3; 62; 63; 95 ]
    (Dirstate.sharers snap (Dirstate.entry snap 11));
  Dirstate.sharers_clear dir e;
  Alcotest.(check bool) "empty after clear" true (Dirstate.sharers_empty dir e)

(* Differential sweep at the one-word geometries of the Table-2 machines
   (12 and 24 cores) and the largest one (62), and at the many-socket
   geometries the scaling study uses: deterministic add/remove/clear
   sequences against a naive reference set, checking membership,
   cardinality, emptiness and ascending iteration — with extra weight on
   socket-boundary cores. *)
let test_dirstate_sharer_sweep () =
  List.iter
    (fun (sockets, cps) ->
      let cores = sockets * cps in
      let dir = Dirstate.create ~sockets ~cores_per_socket:cps () in
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
    [ (1, 12); (2, 12); (2, 31); (4, 16); (8, 16); (32, 16); (8, 12); (62, 8) ]

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

module Regions = Warden_core.Regions
module Bin = Warden_util.Bin

(* The snapshot bytes of the map of per-[lo] upper-bound lists the table
   used to be, built from the live intervals (newest first) and the
   longest length ever added. *)
let reference_save live ~max_len =
  let module M = Map.Make (Int) in
  let by_lo =
    List.fold_left
      (fun m (lo, hi) ->
        M.add lo (hi :: Option.value ~default:[] (M.find_opt lo m)) m)
      M.empty (List.rev live)
  in
  let w = Bin.writer () in
  Bin.w_int w (List.length live);
  Bin.w_int w max_len;
  Bin.w_int w (M.cardinal by_lo);
  M.iter
    (fun lo his ->
      Bin.w_int w lo;
      Bin.w_int w (List.length his);
      List.iter (Bin.w_int w) his)
    by_lo;
  Bin.contents w

let regions_save r =
  let w = Bin.writer () in
  Regions.save r w;
  Bin.contents w

(* Random add/remove sequences against a naive list of live intervals:
   overlapping and duplicate intervals, empty ones, removal of absent
   ones and a full table. After every step, [mem] and [block_in] answer
   like a scan of the list and [save] writes the old map's bytes. *)
let regions_vs_naive =
  let capacity = 24 in
  let span = 400 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"range CAM lookup = naive interval scan"
       QCheck2.Gen.(
         list_size (int_range 1 60)
           (quad (int_range 0 4) (int_range 0 span) (int_range 0 150) nat))
       (fun ops ->
         let r = Regions.create ~capacity in
         let live = ref [] and max_len = ref 0 in
         let rec drop_first x = function
           | [] -> []
           | y :: rest -> if y = x then rest else y :: drop_first x rest
         in
         let pick k =
           match !live with
           | [] -> None
           | l -> Some (List.nth l (k mod List.length l))
         in
         let add (lo, hi) =
           let ok = hi > lo && List.length !live < capacity in
           if ok then begin
             live := (lo, hi) :: !live;
             max_len := max !max_len (hi - lo)
           end;
           Regions.add r ~lo ~hi = ok
         in
         let remove (lo, hi) =
           let ok = List.mem (lo, hi) !live in
           live := drop_first (lo, hi) !live;
           Regions.remove r ~lo ~hi = ok
         in
         let step (kind, lo, len, k) =
           match (kind, pick k) with
           | (0 | 1), _ -> add (lo, lo + len)
           | 2, Some iv -> add iv (* a duplicate *)
           | 3, Some iv -> remove iv
           | _ -> remove (lo, lo + len) (* usually absent *)
         in
         let covers q = List.exists (fun (lo, hi) -> lo <= q && q < hi) !live in
         let overlaps blk =
           let base = Warden_mem.Addr.base_of_block blk in
           List.exists
             (fun (lo, hi) ->
               lo < base + Warden_mem.Addr.block_size && hi > base)
             !live
         in
         List.for_all
           (fun op ->
             step op
             && Regions.count r = List.length !live
             && List.for_all
                  (fun q -> Regions.mem r q = covers q)
                  (List.init ((2 * span / 3) + 2) (fun i -> (3 * i) - 1))
             && List.for_all
                  (fun blk -> Regions.block_in r blk = overlaps blk)
                  (List.init
                     ((2 * span / Warden_mem.Addr.block_size) + 2)
                     Fun.id)
             && Bytes.equal (regions_save r)
                  (reference_save !live ~max_len:!max_len))
           ops))

let test_regions_block_in_allocates_nothing () =
  let r = Regions.create ~capacity:1024 in
  let regions = List.init 100 (fun i -> (i * 4096, (i * 4096) + 2048 + i)) in
  List.iter (fun (lo, hi) -> ignore (Regions.add r ~lo ~hi : bool)) regions;
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for blk = 0 to 9_999 do
    if Regions.block_in r blk then incr hits
  done;
  let words = Gc.minor_words () -. before in
  let naive =
    List.length
      (List.filter
         (fun blk ->
           let base = Warden_mem.Addr.base_of_block blk in
           List.exists
             (fun (lo, hi) ->
               lo < base + Warden_mem.Addr.block_size && hi > base)
             regions)
         (List.init 10_000 Fun.id))
  in
  Alcotest.(check int) "blocks inside regions" naive !hits;
  Alcotest.(check (float 0.)) "minor words for 10,000 block_in" 0. words

let test_regions_restore_malformed () =
  let image entries =
    let w = Bin.writer () in
    List.iter (Bin.w_int w) entries;
    Bin.contents w
  in
  let cases =
    [
      ( "lower bounds not strictly ascending",
        [ 2; 100; 2; 64; 1; 128; 0; 1; 64 ] );
      ( "lower bounds not strictly ascending",
        [ 2; 100; 2; 0; 1; 64; 0; 1; 128 ] );
      ("empty interval", [ 1; 100; 1; 64; 1; 64 ]);
      ("empty upper-bound list", [ 0; 0; 1; 64; 0 ]);
      ("count mismatch", [ 3; 100; 1; 0; 2; 64; 32 ]);
    ]
  in
  List.iter
    (fun (what, entries) ->
      let r = Regions.create ~capacity:8 in
      ignore (Regions.add r ~lo:4096 ~hi:8192 : bool);
      Alcotest.check_raises what
        (Bin.Corrupt ("Bin: Regions: " ^ what))
        (fun () -> Regions.restore r (Bin.reader (image entries)));
      Alcotest.(check bool) "table unchanged" true
        (Regions.count r = 1 && Regions.mem r 4096 && not (Regions.mem r 0)))
    cases;
  let r = Regions.create ~capacity:8 in
  Regions.restore r
    (Bin.reader (image [ 3; 100; 2; 0; 2; 64; 32; 64; 1; 128 ]));
  Alcotest.(check (list (pair int int)))
    "restored in table order"
    [ (0, 64); (0, 32); (64, 128) ]
    (let l = ref [] in
     Regions.iter r (fun ~lo ~hi -> l := (lo, hi) :: !l);
     List.rev !l)

let suite =
  let row proto mk ?cfg (name, steps) =
    Alcotest.test_case (proto ^ " " ^ name) `Quick (run ~mk ?cfg steps)
  in
  List.map (row "mesi" Protocol.mesi) mesi_rows
  @ List.map (row "warden" Warden_core.Warden.protocol) warden_rows
  @ [
      row "warden" Warden_core.Warden.protocol
        ~cfg:{ (machine ()) with Config.ward_region_capacity = 2 }
        cam_row;
      Alcotest.test_case "dirstate sharers past the 62-core boundary" `Quick
        test_dirstate_socket_words;
      Alcotest.test_case "dirstate sharer sweep, 12-512 cores" `Quick
        test_dirstate_sharer_sweep;
      Alcotest.test_case "regions overlap" `Quick test_regions_overlap;
      regions_vs_naive;
      Alcotest.test_case "regions block_in allocates nothing" `Quick
        test_regions_block_in_allocates_nothing;
      Alcotest.test_case "regions restore rejects malformed snapshots" `Quick
        test_regions_restore_malformed;
    ]

let () = Alcotest.run "warden-proto" [ ("proto", suite) ]
