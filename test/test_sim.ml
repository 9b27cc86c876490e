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
let test_one_sim_domain () =
  Alcotest.check_raises "sim_domains = 2"
    (Invalid_argument
       "Memsys.create: sim_domains must be 1; use --jobs for host parallelism")
    (fun () ->
      ignore
        (Memsys.create
           { (Config.dual_socket ()) with Config.sim_domains = 2 }
           ~proto:`Mesi))

(* The engine serves every hit, inline or scheduled, through the hit
   prefix ([Memsys.try_fast_*]) and falls back to [load]/[store]/[rmw]
   only on an upgrade or a miss, so no engine run checks the prefix
   against the full path's [Hit] branch. Drive one random stream of
   accesses (several threads and blocks, region activity under WARDen)
   into two fresh memory systems, one through the full path only and one
   through the prefix with the fallback: every access must return the
   same value and latency, and the final stats, energy and memory image
   must be identical. Half the blocks share one L1 set, so hits come from
   both levels. *)
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
      let same what (v, lat) (v', lat') =
        if v <> v' || lat <> lat' then
          Alcotest.failf "%s: full path (%Ld, %d) vs hit prefix (%Ld, %d)" what v
            lat v' lat'
      in
      let fast lat value slow =
        if lat >= 0 then begin
          incr prefix_hits;
          (value (), lat)
        end
        else slow ()
      in
      for _ = 1 to 20_000 do
        let thread = R.int rng nthreads in
        let size = [| 1; 2; 4; 8 |].(R.int rng 4) in
        let addr = block (R.int rng nblocks) + (size * R.int rng (64 / size)) in
        match R.int rng 16 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            same "load"
              (Memsys.load full ~thread addr ~size)
              (fast
                 (Memsys.try_fast_load pref ~thread addr ~size)
                 (fun () -> Memsys.fast_value pref)
                 (fun () -> Memsys.load pref ~thread addr ~size))
        | 6 | 7 | 8 | 9 | 10 ->
            let v = R.next rng in
            same "store"
              (0L, Memsys.store full ~thread addr ~size v)
              (fast
                 (Memsys.try_fast_store pref ~thread addr ~size v)
                 (fun () -> 0L)
                 (fun () -> (0L, Memsys.store pref ~thread addr ~size v)))
        | 11 | 12 | 13 ->
            let f = Int64.add (Int64.of_int (R.int rng 100)) in
            same "rmw"
              (Memsys.rmw full ~thread addr ~size f)
              (fast
                 (Memsys.try_fast_rmw pref ~thread addr ~size f)
                 (fun () -> Memsys.fast_value pref)
                 (fun () -> Memsys.rmw pref ~thread addr ~size f))
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

let suite =
  [
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
    Alcotest.test_case "hit prefix equals the full access path" `Quick
      test_hit_prefix_differential;
  ]

let () = Alcotest.run "warden-sim" [ ("sim", suite) ]
