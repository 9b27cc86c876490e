(* Engine + memory system tests: single-thread semantics, the Figure-6
   ping-pong microbenchmark across thread placements, a randomized
   golden-model comparison of MESI against a flat reference memory, and
   the hit prefix against the full access path. *)

open Warden_machine
open Warden_sim
module Ops = Engine.Ops

let mk ?(proto = `Mesi) cfg = Engine.create cfg ~proto

let run1 ?proto cfg body =
  let eng = mk ?proto cfg in
  let ms = Engine.memsys eng in
  let cycles = Engine.run eng [| (fun () -> body ms) |] in
  (eng, ms, cycles)

let test_load_store_roundtrip () =
  let _, ms, _ =
    run1 (Config.single_socket ()) (fun ms ->
        let a = Memsys.alloc ms ~bytes:64 ~align:8 in
        Ops.store a ~size:8 42L;
        Alcotest.(check int64) "read back" 42L (Ops.load a ~size:8);
        Ops.store (a + 8) ~size:4 0xDEADBEEFL;
        Alcotest.(check int64) "u32" 0xDEADBEEFL (Ops.load (a + 8) ~size:4);
        Ops.store (a + 16) ~size:1 0x7FL;
        Alcotest.(check int64) "u8" 0x7FL (Ops.load (a + 16) ~size:1);
        (* Partial overwrite: low byte only. *)
        Ops.store a ~size:1 0xFFL;
        Alcotest.(check int64) "merged" 0xFFL (Int64.logand (Ops.load a ~size:8) 0xFFL))
  in
  Memsys.flush_all ms;
  ()

let test_flush_reaches_store () =
  let saved = ref 0 in
  let _, ms, _ =
    run1 (Config.single_socket ()) (fun ms ->
        let a = Memsys.alloc ms ~bytes:8 ~align:8 in
        Ops.store a ~size:8 99L;
        saved := a)
  in
  Alcotest.(check int64) "not yet in store" 0L (Memsys.peek ms !saved ~size:8);
  Memsys.flush_all ms;
  Alcotest.(check int64) "flushed" 99L (Memsys.peek ms !saved ~size:8)

let test_latencies_sane () =
  (* A load hitting L1 costs l1_lat; a cold load costs more. *)
  let cfg = Config.single_socket () in
  let _, ms, cycles =
    run1 cfg (fun ms ->
        let a = Memsys.alloc ms ~bytes:8 ~align:8 in
        ignore (Ops.load a ~size:8);
        ignore (Ops.load a ~size:8))
  in
  ignore ms;
  (* cold miss (l2 + l3 + dram) then an L1 hit *)
  Alcotest.(check bool) "cold load slower than 2 hits" true (cycles > 2 * cfg.Config.l1_lat);
  let s = Memsys.sstats ms in
  Alcotest.(check int) "one l1 hit" 1 s.Sstats.l1_hits;
  Alcotest.(check int) "one miss" 1 s.Sstats.priv_misses

(* Figure 6: two threads ping-pong a cache block. Returns cycles/iter. *)
let pingpong cfg ~tid_a ~tid_b ~iters =
  let eng = mk cfg in
  let ms = Engine.memsys eng in
  let buf = Memsys.alloc ms ~bytes:8 ~align:8 in
  Memsys.poke ms buf ~size:8 1L;
  let kernel my partner () =
    for _ = 1 to iters do
      let rec wait () =
        Ops.tick 1;
        if Ops.load buf ~size:8 <> partner then wait ()
      in
      wait ();
      Ops.store buf ~size:8 my;
      Ops.tick 1
    done
  in
  let nthreads = max tid_a tid_b + 1 in
  let bodies =
    Array.init nthreads (fun tid ->
        if tid = tid_a then kernel 2L 1L
        else if tid = tid_b then kernel 1L 2L
        else fun () -> ())
  in
  let cycles = Engine.run eng bodies in
  float_of_int cycles /. float_of_int iters

let test_pingpong_ordering () =
  let same_core = pingpong (Config.single_socket ~threads_per_core:2 ()) ~tid_a:0 ~tid_b:1 ~iters:200 in
  let same_socket = pingpong (Config.single_socket ()) ~tid_a:0 ~tid_b:1 ~iters:200 in
  let cross_socket = pingpong (Config.dual_socket ()) ~tid_a:0 ~tid_b:12 ~iters:200 in
  Alcotest.(check bool)
    (Printf.sprintf "same core (%.1f) < same socket (%.1f)" same_core same_socket)
    true
    (same_core < same_socket);
  Alcotest.(check bool)
    (Printf.sprintf "same socket (%.1f) < cross socket (%.1f)" same_socket cross_socket)
    true
    (same_socket < cross_socket)

(* Golden model: random single-thread ops must match a host array. *)
let test_golden_single_thread () =
  let cfg = Config.single_socket () in
  let rng = Warden_util.Splitmix.make 0xC0FFEEL in
  let n = 4096 in
  let _, ms, _ =
    run1 cfg (fun ms ->
        let base = Memsys.alloc ms ~bytes:(n * 8) ~align:64 in
        let ref_mem = Array.make n 0L in
        for _ = 1 to 20_000 do
          let i = Warden_util.Splitmix.int rng n in
          if Warden_util.Splitmix.bool rng then begin
            let v = Warden_util.Splitmix.next rng in
            Ops.store (base + (8 * i)) ~size:8 v;
            ref_mem.(i) <- v
          end
          else
            Alcotest.(check int64)
              "value matches reference" ref_mem.(i)
              (Ops.load (base + (8 * i)) ~size:8)
        done)
  in
  ignore ms

(* Golden model, multithreaded: threads own disjoint slices but share cache
   blocks at the boundaries (false sharing), stressing the protocol. *)
let golden_multi ~proto () =
  let cfg = Config.dual_socket () in
  let eng = mk ~proto cfg in
  let ms = Engine.memsys eng in
  let nthreads = 8 in
  let per = 512 in
  let base = Memsys.alloc ms ~bytes:(nthreads * per * 8) ~align:64 in
  let ref_mem = Array.make (nthreads * per) 0L in
  let body tid () =
    let rng = Warden_util.Splitmix.make (Int64.of_int (tid + 77)) in
    for _ = 1 to 4000 do
      let i = (tid * per) + Warden_util.Splitmix.int rng per in
      if Warden_util.Splitmix.bool rng then begin
        let v = Warden_util.Splitmix.next rng in
        Ops.store (base + (8 * i)) ~size:8 v;
        ref_mem.(i) <- v
      end
      else if Ops.load (base + (8 * i)) ~size:8 <> ref_mem.(i) then
        Alcotest.failf "thread %d read stale value at %d" tid i
    done
  in
  ignore (Engine.run eng (Array.init nthreads body));
  Memsys.flush_all ms;
  Array.iteri
    (fun i v ->
      Alcotest.(check int64)
        (Printf.sprintf "final memory at %d" i)
        v
        (Memsys.peek ms (base + (8 * i)) ~size:8))
    ref_mem

let test_rmw_cas () =
  let _, ms, _ =
    run1 (Config.single_socket ()) (fun ms ->
        let a = Memsys.alloc ms ~bytes:8 ~align:8 in
        Ops.store a ~size:8 5L;
        Alcotest.(check bool) "cas succeeds" true (Ops.cas a ~size:8 ~expected:5L ~desired:9L);
        Alcotest.(check bool) "cas fails" false (Ops.cas a ~size:8 ~expected:5L ~desired:1L);
        Alcotest.(check int64) "value" 9L (Ops.load a ~size:8);
        Alcotest.(check int64) "fetch_add old" 9L (Ops.fetch_add a ~size:8 3L);
        Alcotest.(check int64) "fetch_add new" 12L (Ops.load a ~size:8))
  in
  ignore ms

(* Shared counter incremented atomically from many threads. *)
(* The invariant auditor must pass after stressful runs under both
   protocols, and an artificially broken state must be caught (we cannot
   forge one through the public API, so we check the auditor's clean
   verdicts only on real executions). *)
let test_invariants_after_stress () =
  List.iter
    (fun proto ->
      let cfg = Config.dual_socket () in
      let eng = mk ~proto cfg in
      let ms = Engine.memsys eng in
      let nthreads = 12 in
      let a = Memsys.alloc ms ~bytes:(nthreads * 512 * 8) ~align:64 in
      let body tid () =
        let rng = Warden_util.Splitmix.make (Int64.of_int (tid * 31)) in
        for _ = 1 to 2000 do
          let i = Warden_util.Splitmix.int rng (nthreads * 512) in
          if Warden_util.Splitmix.bool rng then
            ignore (Ops.load (a + (8 * i)) ~size:8)
          else if i mod nthreads = tid then
            (* writes stay in per-thread slots: data-race free *)
            Ops.store (a + (8 * i)) ~size:8 (Int64.of_int i)
        done
      in
      ignore (Engine.run eng (Array.init nthreads body));
      match Memsys.check_invariants ms with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invariants violated under stress: %s" m)
    [ `Mesi; `Warden ]

let test_atomic_counter () =
  List.iter
    (fun proto ->
      let eng = mk ~proto (Config.dual_socket ()) in
      let ms = Engine.memsys eng in
      let a = Memsys.alloc ms ~bytes:8 ~align:8 in
      let nthreads = 16 and per = 500 in
      let body _tid () =
        for _ = 1 to per do
          ignore (Ops.fetch_add a ~size:8 1L);
          Ops.tick 1
        done
      in
      ignore (Engine.run eng (Array.init nthreads body));
      Memsys.flush_all ms;
      Alcotest.(check int64)
        "all increments observed"
        (Int64.of_int (nthreads * per))
        (Memsys.peek ms a ~size:8))
    [ `Mesi; `Warden ]

(* One simulation runs on one host domain; asking for more is an error,
   not a silent fallback. *)
(* A copy is the same memory system, apart: the same accesses on both give
   the same values, latencies and snapshot, and what runs on the copy
   leaves the original as it was. *)
let test_copy () =
  let state m =
    let w = Warden_util.Bin.writer () in
    Memsys.save_state m w;
    Warden_util.Bin.contents w
  in
  List.iter
    (fun proto ->
      let ms = Memsys.create (Config.dual_socket ()) ~proto in
      let base = Memsys.alloc ms ~bytes:4096 ~align:64 in
      let run m round =
        List.init 400 (fun i ->
            let a = base + (8 * (((i * 37) + round) mod 512)) in
            let thread = i mod 5 in
            if i mod 3 = 0 then
              (0L, Memsys.store m ~thread a ~size:8 (Int64.of_int (i + round)))
            else Memsys.load m ~thread a ~size:8)
      in
      (* Copy with data in the store, the LLC and dirty private lines. *)
      ignore (run ms 0);
      Memsys.flush_all ms;
      ignore (run ms 1);
      let c = Memsys.copy ms in
      Alcotest.(check (list (pair int64 int)))
        "same accesses" (run ms 2) (run c 2);
      List.iter Memsys.flush_all [ ms; c ];
      let s = state ms in
      Alcotest.(check bool) "same state" true (Bytes.equal s (state c));
      ignore (run c 3);
      Memsys.flush_all c;
      Alcotest.(check bool) "original untouched" true (Bytes.equal s (state ms)))
    [ `Mesi; `Warden; `Msi_bus; `Sisd ]

let test_one_sim_domain () =
  Alcotest.check_raises "sim_domains = 2"
    (Invalid_argument
       "Memsys.create: sim_domains must be 1; use --jobs for host parallelism")
    (fun () ->
      ignore
        (Memsys.create
           { (Config.dual_socket ()) with Config.sim_domains = 2 }
           ~proto:`Mesi))

(* [Memsys.try_fast_*] is the hit prefix of the access transition on its
   own; the ledger times it apart from the miss path. Drive one random
   stream of accesses (several threads and blocks, region activity under
   WARDen) into two fresh memory systems, one through the transitions
   ([load]/[store]/[rmw]) and one through the prefix, falling back to the
   transition on an upgrade or a miss: every access must take the same
   latency, every fallback must return the same value, and the final
   stats, energy and memory image must be identical. Half the blocks
   share one L1 set, so hits come from both levels. *)
let test_hit_prefix_differential () =
  let module R = Warden_util.Splitmix in
  let module Bin = Warden_util.Bin in
  let cfg = Config.dual_socket () in
  let nthreads = 8 and nblocks = 24 in
  let stride = 64 * Config.l1_sets cfg in
  let bytes = (nblocks / 2) * stride in
  List.iter
    (fun proto ->
      let full = Memsys.create cfg ~proto and pref = Memsys.create cfg ~proto in
      let base = Memsys.alloc full ~bytes ~align:4096 in
      Alcotest.(check int) "same layout" base (Memsys.alloc pref ~bytes ~align:4096);
      let block k =
        if k < nblocks / 2 then base + (64 * k) else base + ((k - (nblocks / 2) + 1) * stride)
      in
      let rng = R.make 0x41B2L in
      let prefix_hits = ref 0 and region = ref None in
      (* [lat] is the prefix's answer; [slow] the fallback transition. *)
      let same what (v, lat) lat' slow =
        if lat' >= 0 then begin
          incr prefix_hits;
          if lat <> lat' then
            Alcotest.failf "%s: transition latency %d vs hit prefix %d" what lat lat'
        end
        else
          let v', lat' = slow () in
          if v <> v' || lat <> lat' then
            Alcotest.failf "%s: transition (%Ld, %d) vs fallback (%Ld, %d)" what v
              lat v' lat'
      in
      for _ = 1 to 20_000 do
        let thread = R.int rng nthreads in
        let size = [| 1; 2; 4; 8 |].(R.int rng 4) in
        let addr = block (R.int rng nblocks) + (size * R.int rng (64 / size)) in
        match R.int rng 16 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            same "load"
              (Memsys.load full ~thread addr ~size)
              (Memsys.try_fast_load pref ~thread addr ~size)
              (fun () -> Memsys.load pref ~thread addr ~size)
        | 6 | 7 | 8 | 9 | 10 ->
            let v = R.next rng in
            same "store"
              (0L, Memsys.store full ~thread addr ~size v)
              (Memsys.try_fast_store pref ~thread addr ~size v)
              (fun () -> (0L, Memsys.store pref ~thread addr ~size v))
        | 11 | 12 | 13 ->
            let f = Int64.add (Int64.of_int (R.int rng 100)) in
            same "rmw"
              (Memsys.rmw full ~thread addr ~size f)
              (Memsys.try_fast_rmw pref ~thread addr ~size f)
              (fun () -> Memsys.rmw pref ~thread addr ~size f)
        | _ -> (
            match !region with
            | None ->
                let lo = block (R.int rng ((nblocks / 2) - 4)) in
                let hi = lo + (64 * (1 + R.int rng 4)) in
                let ok = Memsys.region_add full ~thread ~lo ~hi in
                Alcotest.(check bool) "region_add" ok
                  (Memsys.region_add pref ~thread ~lo ~hi);
                region := Some (lo, hi)
            | Some (lo, hi) ->
                Alcotest.(check int) "region_remove"
                  (Memsys.region_remove full ~thread ~lo ~hi)
                  (Memsys.region_remove pref ~thread ~lo ~hi);
                region := None)
      done;
      Alcotest.(check bool) "the prefix served hits" true (!prefix_hits > 1000);
      Memsys.flush_all full;
      Memsys.flush_all pref;
      let bytes save ms =
        let w = Bin.writer () in
        save ms w;
        Bin.contents w
      in
      List.iter
        (fun (what, save) ->
          Alcotest.(check bool) what true (bytes save full = bytes save pref))
        [
          ("sstats", fun ms -> Sstats.save (Memsys.sstats ms));
          ("pstats", fun ms -> Warden_proto.Pstats.save (Memsys.pstats ms));
          ("energy", fun ms -> Energy.save (Memsys.energy ms));
        ];
      for k = 0 to nblocks - 1 do
        for w = 0 to 7 do
          let a = block k + (8 * w) in
          Alcotest.(check int64) "memory image" (Memsys.peek full a ~size:8)
            (Memsys.peek pref a ~size:8)
        done
      done)
    [ `Mesi; `Warden ]

(* --- Privcache against a model ------------------------------------------- *)

(* Random fills, probes, stores, invalidations and downgrades on a private
   hierarchy small enough that evictions fire, checked against a table of
   (state, bytes, mask) per resident block. Every line handed to the
   evict callback and every probe's line must match the model. *)

module Pc = Privcache
module Ld = Warden_cache.Linedata
module St = Warden_proto.States

type pc_op =
  | Fill of int * int * int (* blk, pstate code, data seed *)
  | Probe of int * bool (* fast_hit, then lookup; the bool is [write] *)
  | Write of int * int * int * int64 (* blk, log2 size, offset, value *)
  | Invalidate of int
  | Downgrade of int

let show_pc_op = function
  | Fill (b, c, d) -> Printf.sprintf "fill %d st%d #%d" b c d
  | Probe (b, w) -> Printf.sprintf "probe %d %b" b w
  | Write (b, z, o, v) -> Printf.sprintf "write %d %d@%d %Ld" b (1 lsl z) o v
  | Invalidate b -> Printf.sprintf "inv %d" b
  | Downgrade b -> Printf.sprintf "down %d" b

let pc_op_gen =
  let open QCheck2.Gen in
  let blk = int_range 0 15 in
  frequency
    [
      ( 3,
        map3
          (fun b c d -> Fill (b, c, d))
          blk (int_range 0 2) (int_range 0 255) );
      (3, map2 (fun b w -> Probe (b, w)) blk bool);
      ( 4,
        map3
          (fun b (z, o) v -> Write (b, z, o, v))
          blk
          (pair (int_range 0 3) (int_range 0 63))
          int64 );
      (1, map (fun b -> Invalidate b) blk);
      (1, map (fun b -> Downgrade b) blk);
    ]

let pstate_of = function 0 -> St.P_S | 1 -> St.P_E | _ -> St.P_M

type model_line = {
  mutable st : St.pstate;
  data : Bytes.t;
  mutable mask : int64;
}

let privcache_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"privcache matches a table model"
       ~print:(fun (four, ops) ->
         Printf.sprintf "%d sets: %s" (if four then 4 else 2)
           (String.concat "; " (List.map show_pc_op ops)))
       QCheck2.Gen.(pair bool (list_size (int_range 1 120) pc_op_gen))
       (fun (four, ops) ->
         let sets = if four then 4 else 2 in
         let cfg =
           {
             (Config.single_socket ()) with
             Config.l1_bytes = 2 * 64;
             l1_ways = 2;
             l2_bytes = sets * 2 * 64;
             l2_ways = 2;
           }
         in
         let model : (int, model_line) Hashtbl.t = Hashtbl.create 16 in
         let expect what c = if not c then failwith what in
         let matches blk st line =
           match Hashtbl.find_opt model blk with
           | None -> false
           | Some m ->
               m.st = st
               && Bytes.equal m.data (Ld.bytes line)
               && Int64.equal m.mask (Ld.dirty_mask line)
         in
         let evict ~blk st line =
           expect "evicted line" (matches blk st line);
           Hashtbl.remove model blk
         in
         let pc = Pc.create cfg ~evict in
         let matches_slot blk slot =
           matches blk (Pc.state pc slot) (Pc.data pc slot)
         in
         let check_probe blk = function
           | None -> expect "absent probe" (not (Hashtbl.mem model blk))
           | Some p ->
               expect "probe" (matches blk p.Warden_proto.Fabric.state p.data)
         in
         List.iter
           (fun op ->
             (match op with
             | Fill (blk, code, seed) ->
                 if not (Hashtbl.mem model blk) then begin
                   let data =
                     Bytes.init 64 (fun i ->
                         Char.chr ((seed + (i * 3)) land 0xFF))
                   in
                   (* A dirty source: the fill takes its bytes, not its
                      mask. *)
                   let src = Ld.of_bytes (Bytes.copy data) in
                   Ld.store src ~off:0 ~size:1 0L;
                   Bytes.set data 0 '\000';
                   let st = pstate_of code in
                   (* The fill's eviction leaves the model before the new
                      line enters it. *)
                   let slot = Pc.fill pc ~blk st src in
                   Hashtbl.replace model blk { st; data; mask = 0L };
                   expect "filled line" (matches_slot blk slot)
                 end
             | Probe (blk, write) -> (
                 let sufficient =
                   match Hashtbl.find_opt model blk with
                   | None -> None
                   | Some m -> Some ((not write) || m.st <> St.P_S)
                 in
                 let slot = Pc.fast_hit pc ~blk ~write in
                 match sufficient with
                 | Some true ->
                     expect "fast hit" (slot >= 0);
                     expect "fast hit line" (matches_slot blk slot)
                 | _ -> (
                     expect "fast miss" (slot = -1);
                     match (Pc.lookup pc ~blk, sufficient) with
                     | -1, None -> ()
                     | slot, Some false ->
                         expect "upgrade line" (matches_slot blk slot)
                     | _ -> expect "lookup kind" false))
             | Write (blk, z, off, v) -> (
                 let size = 1 lsl z in
                 let off = off land lnot (size - 1) in
                 match Hashtbl.find_opt model blk with
                 | Some m when m.st <> St.P_S ->
                     let slot = Pc.fast_hit pc ~blk ~write:true in
                     expect "writable" (slot >= 0);
                     Pc.write pc slot ~off ~size v;
                     let solo = Ld.of_bytes m.data in
                     Ld.store solo ~off ~size v;
                     m.mask <- Int64.logor m.mask (Ld.range_mask ~off ~size);
                     m.st <- St.P_M
                 | _ -> ())
             | Invalidate blk ->
                 check_probe blk (Pc.invalidate pc ~blk);
                 Hashtbl.remove model blk
             | Downgrade blk -> (
                 check_probe blk (Pc.downgrade pc ~blk);
                 match Hashtbl.find_opt model blk with
                 | Some m -> m.st <- St.P_S
                 | None -> ()));
             (* Residency agrees after every step. *)
             let resident = ref 0 in
             Pc.iter_resident pc (fun blk slot ->
                 incr resident;
                 expect "resident line" (matches_slot blk slot));
             expect "resident count" (!resident = Hashtbl.length model);
             expect "inclusion" (Pc.check_inclusion pc = Ok ()))
           ops;
         true))

(* A fresh memory system holds no cache storage: every core shares the
   one-set, one-way blank hierarchy until its first fill, and that
   hierarchy answers every fabric probe empty, on copies too. *)
let test_fresh_holds_no_caches () =
  let module F = Warden_proto.Fabric in
  (* The blocks [core] holds, after checking that every probe of a block
     in [blks] that it does not hold answers empty. *)
  let held what ms blks core =
    let fab = Warden_proto.Protocol.fabric (Memsys.protocol ms) in
    let lines = ref [] in
    fab.F.iter_priv ~core (fun blk -> lines := blk :: !lines);
    List.iter
      (fun blk ->
        if not (List.mem blk !lines) then
          List.iter
            (fun (probe, answer) ->
              if answer <> None then
                Alcotest.failf "%s: core %d: %s of block %d found a line" what
                  core probe blk)
            [
              ("peek", fab.F.peek_priv ~core ~blk);
              ("invalidate", fab.F.invalidate_priv ~core ~blk);
              ("downgrade", fab.F.downgrade_priv ~core ~blk);
            ])
      blks;
    !lines
  in
  let all_empty what ms blks =
    for core = 0 to Config.num_cores (Memsys.config ms) - 1 do
      Alcotest.(check (list int))
        (Printf.sprintf "%s: core %d holds nothing" what core)
        [] (held what ms blks core)
    done
  in
  List.iter
    (fun (machine, cfg) ->
      List.iter
        (fun (pname, proto) ->
          let what = machine ^ "/" ^ pname in
          let ms = Memsys.create cfg ~proto in
          let words = Obj.reachable_words (Obj.repr ms) in
          if words >= 2048 then
            Alcotest.failf "%s: a fresh memory system is %d words" what words;
          let a = Memsys.alloc ms ~bytes:8 ~align:8 in
          let blks = [ 0; 1; Warden_mem.Addr.block_of a; 1 lsl 30 ] in
          all_empty what ms blks;
          let c = Memsys.copy ms in
          Alcotest.(check int)
            "thread 0 runs on core 0" 0
            (Config.core_of_thread cfg 0);
          ignore (Memsys.load ms ~thread:0 a ~size:8);
          for core = 0 to Config.num_cores cfg - 1 do
            let n = List.length (held what ms blks core) in
            if (core = 0) <> (n > 0) then
              Alcotest.failf "%s: after thread 0's access, core %d holds %d"
                what core n
          done;
          all_empty (what ^ " copy") c blks)
        [
          ("mesi", `Mesi); ("warden", `Warden); ("msi-bus", `Msi_bus);
          ("sisd", `Sisd);
        ])
    [
      ("single", Config.single_socket ());
      ("dual", Config.dual_socket ());
      ("disagg", Config.disaggregated ());
    ]

(* The minor page faults this process has taken so far (field 10 of
   /proc/self/stat), or [None] where it cannot be read. *)
let minor_faults () =
  match In_channel.with_open_text "/proc/self/stat" In_channel.input_all with
  | exception Sys_error _ -> None
  | stat -> (
      (* The fields after the parenthesized command name start at 3. *)
      let i = String.rindex stat ')' in
      let rest = String.sub stat (i + 2) (String.length stat - i - 2) in
      match List.nth_opt (String.split_on_char ' ' rest) (10 - 3) with
      | Some f -> int_of_string_opt f
      | None -> None)

(* [Host_heap.retain] keeps the malloc heap a run freed, so a run after
   the first faults no page back in: here fib at scale 20 on the single
   socket, run in the ledger's cycle of create, run, drop, full major GC.
   Without it, the third cycle takes about 465 minor faults. *)
let test_heap_kept () =
  if not (Warden_util.Host_heap.retain ()) then Alcotest.skip ();
  if minor_faults () = None then Alcotest.skip ();
  let fib = Option.get (Warden_pbbs.Suite.find "fib") in
  let cycle () =
    let eng = Engine.create (Config.single_socket ()) ~proto:`Warden in
    Alcotest.(check bool)
      "fib verified" true
      (fib.Warden_pbbs.Spec.run ~scale:20 ~seed:0L eng);
    Gc.full_major ()
  in
  cycle ();
  cycle ();
  let before = Option.get (minor_faults ()) in
  cycle ();
  let faults = Option.get (minor_faults ()) - before in
  if faults >= 64 then
    Alcotest.failf "the third cycle took %d minor faults" faults

(* The heap test runs first: a large block that an earlier test frees
   raises glibc's dynamic trim threshold, which would hide the trimming
   it checks for. *)
let suite =
  [
    Alcotest.test_case "the freed heap is kept" `Quick test_heap_kept;
    Alcotest.test_case "load/store roundtrip" `Quick test_load_store_roundtrip;
    Alcotest.test_case "flush reaches store" `Quick test_flush_reaches_store;
    Alcotest.test_case "latencies sane" `Quick test_latencies_sane;
    Alcotest.test_case "pingpong placement ordering" `Quick test_pingpong_ordering;
    Alcotest.test_case "golden single thread" `Quick test_golden_single_thread;
    Alcotest.test_case "golden multithread mesi" `Quick (golden_multi ~proto:`Mesi);
    Alcotest.test_case "rmw and cas" `Quick test_rmw_cas;
    Alcotest.test_case "invariants after stress" `Quick test_invariants_after_stress;
    Alcotest.test_case "atomic counter" `Quick test_atomic_counter;
    Alcotest.test_case "one sim domain" `Quick test_one_sim_domain;
    privcache_model;
    Alcotest.test_case "hit prefix equals the full access path" `Quick
      test_hit_prefix_differential;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "a fresh memory system holds no cache storage" `Quick
      test_fresh_holds_no_caches;
  ]

let () = Alcotest.run "warden-sim" [ ("sim", suite) ]
