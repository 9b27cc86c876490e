(* Engine-level tests: instruction/cycle accounting, store-buffer
   behaviour, SMT sharing, zero-fill, scheduling order and determinism,
   and the quiescence guard on snapshot/restore. *)

open Warden_machine
open Warden_sim
module Ops = Engine.Ops

let run cfg bodies =
  let eng = Engine.create cfg ~proto:`Mesi in
  let cycles = Engine.run eng bodies in
  (eng, Engine.memsys eng, cycles)

let test_tick_accounting () =
  let _, ms, cycles =
    run (Config.single_socket ()) [| (fun () -> Ops.tick 100) |]
  in
  Alcotest.(check int) "cycles = ticks" 100 cycles;
  Alcotest.(check int) "instructions = ticks" 100
    (Memsys.sstats ms).Sstats.instructions

let test_stall_is_not_instructions () =
  let _, ms, cycles =
    run (Config.single_socket ()) [| (fun () -> Ops.stall 50; Ops.tick 10) |]
  in
  Alcotest.(check int) "cycles include stall" 60 cycles;
  Alcotest.(check int) "instructions exclude stall" 10
    (Memsys.sstats ms).Sstats.instructions

let test_makespan_is_max () =
  let _, _, cycles =
    run (Config.single_socket ())
      [| (fun () -> Ops.tick 10); (fun () -> Ops.tick 500); (fun () -> ()) |]
  in
  Alcotest.(check int) "slowest thread defines makespan" 500 cycles

let test_store_buffer_hides_latency () =
  (* A store's miss latency overlaps with subsequent compute; a load's
     cannot. Both kernels end with the same 200 ticks. *)
  let kernel_time use_load =
    let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
    let ms = Engine.memsys eng in
    let a = Memsys.alloc ms ~bytes:8 ~align:8 in
    Engine.run eng
      [|
        (fun () ->
          if use_load then ignore (Ops.load a ~size:8)
          else Ops.store a ~size:8 1L;
          Ops.tick 200);
      |]
  in
  let store_time = kernel_time false and load_time = kernel_time true in
  Alcotest.(check bool)
    (Printf.sprintf "store overlaps compute (%d) vs load (%d)" store_time
       load_time)
    true
    (store_time < load_time)

let test_store_buffer_fills_up () =
  (* Issue far more stores than the buffer has entries, each to a distinct
     block (every one misses): the thread must eventually stall. *)
  let cfg = Config.single_socket () in
  let eng = Engine.create cfg ~proto:`Mesi in
  let ms = Engine.memsys eng in
  let n = 4 * cfg.Config.store_buffer_entries in
  let a = Memsys.alloc ms ~bytes:(64 * n) ~align:64 in
  ignore
    (Engine.run eng
       [|
         (fun () ->
           for i = 0 to n - 1 do
             Ops.store (a + (64 * i)) ~size:8 (Int64.of_int i)
           done);
       |]);
  Alcotest.(check bool) "sb stalls recorded" true
    ((Memsys.sstats ms).Sstats.sb_stalls > 0)

let test_rmw_drains_store_buffer () =
  (* An atomic acts as a fence: its completion time covers buffered
     stores. Verified by it being slower after a burst of store misses. *)
  let cfg = Config.single_socket () in
  let run_with_burst burst =
    let eng = Engine.create cfg ~proto:`Mesi in
    let ms = Engine.memsys eng in
    let a = Memsys.alloc ms ~bytes:4096 ~align:64 in
    let flag = Memsys.alloc ms ~bytes:8 ~align:64 in
    Engine.run eng
      [|
        (fun () ->
          if burst then
            for i = 0 to 20 do
              Ops.store (a + (64 * i)) ~size:8 1L
            done;
          ignore (Ops.fetch_add flag ~size:8 1L));
      |]
  in
  let quiet = run_with_burst false and busy = run_with_burst true in
  Alcotest.(check bool)
    (Printf.sprintf "fence waits for buffered stores (%d vs %d)" busy quiet)
    true (busy > quiet + 100)

let test_smt_threads_share_l1 () =
  (* Thread 1 reads what thread 0 wrote; on the same core the read must be
     an L1/L2 hit, on different cores it must not be. *)
  let cross tpc =
    let cfg = Config.single_socket ~threads_per_core:tpc () in
    let eng = Engine.create cfg ~proto:`Mesi in
    let ms = Engine.memsys eng in
    let a = Memsys.alloc ms ~bytes:8 ~align:64 in
    ignore
      (Engine.run eng
         [|
           (fun () -> Ops.store a ~size:8 9L);
           (fun () ->
             Ops.stall 2_000;
             ignore (Ops.load a ~size:8));
         |]);
    let s = Memsys.sstats ms in
    (s.Sstats.l1_hits, (Memsys.pstats ms).Warden_proto.Pstats.downgrades)
  in
  let _, down_smt = cross 2 in
  let _, down_sep = cross 1 in
  Alcotest.(check int) "same core: no downgrade" 0 down_smt;
  Alcotest.(check bool) "different cores: downgrade" true (down_sep > 0)

let test_zero_fill_counted () =
  let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
  let ms = Engine.memsys eng in
  let a = Memsys.alloc ms ~bytes:64 ~align:64 in
  ignore (Engine.run eng [| (fun () -> ignore (Ops.load a ~size:8)) |]);
  let ps = Memsys.pstats ms in
  Alcotest.(check int) "fresh block zero-filled" 1 ps.Warden_proto.Pstats.zero_fills;
  Alcotest.(check int) "no dram read" 0 ps.Warden_proto.Pstats.dram_reads

let test_initialized_input_comes_from_dram () =
  let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
  let ms = Engine.memsys eng in
  let a = Memsys.alloc ms ~bytes:64 ~align:64 in
  Memsys.poke ms a ~size:8 7L;
  ignore (Engine.run eng [| (fun () -> ignore (Ops.load a ~size:8)) |]);
  let ps = Memsys.pstats ms in
  Alcotest.(check int) "host-initialized data is in memory" 1
    ps.Warden_proto.Pstats.dram_reads

(* Two run phases continue one simulated timeline: clocks, instruction
   counts and cycle stats carry over, and the split run equals the fused
   run exactly (the snapshot machinery depends on this equivalence). *)
let test_engine_multi_phase () =
  let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
  ignore (Engine.run eng [| (fun () -> Ops.tick 100) |]);
  let span = Engine.run eng [| (fun () -> Ops.tick 50) |] in
  Alcotest.(check int) "phase 2 continues the clock" 150 span;
  let st = Memsys.sstats (Engine.memsys eng) in
  Alcotest.(check int) "cycles accumulate" 150 st.Sstats.cycles;
  Alcotest.(check int) "instructions accumulate" 150 st.Sstats.instructions;
  (* a single-thread split run equals the fused run, memory traffic
     included (multi-thread splits may re-seed queue tie-breaking, so the
     exact split-vs-fused equivalence is claimed for one thread only) *)
  let go phases =
    let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
    let ms = Engine.memsys eng in
    let a = Memsys.alloc ms ~bytes:8 ~align:8 in
    List.iter
      (fun iters ->
        ignore
          (Engine.run eng
             [|
               (fun () ->
                 for _ = 1 to iters do
                   ignore (Ops.fetch_add a ~size:8 1L)
                 done);
             |]))
      phases;
    Memsys.flush_all ms;
    ( Memsys.peek ms a ~size:8,
      (Memsys.sstats ms).Sstats.cycles,
      (Memsys.sstats ms).Sstats.rmws )
  in
  Alcotest.(check bool) "split phases equal fused run" true
    (go [ 30; 20 ] = go [ 50 ])

let test_too_many_threads_rejected () =
  let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
  Alcotest.check_raises "13 bodies on 12 threads"
    (Invalid_argument "Engine.run: too many threads") (fun () ->
      ignore (Engine.run eng (Array.make 13 (fun () -> ()))))

let test_deterministic_interleaving () =
  let go () =
    let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
    let ms = Engine.memsys eng in
    let a = Memsys.alloc ms ~bytes:8 ~align:8 in
    ignore
      (Engine.run eng
         (Array.init 8 (fun tid () ->
              for _ = 1 to 50 do
                ignore (Ops.fetch_add a ~size:8 (Int64.of_int (tid + 1)))
              done)));
    Memsys.flush_all ms;
    ( Memsys.peek ms a ~size:8,
      (Memsys.sstats ms).Sstats.cycles,
      (Memsys.pstats ms).Warden_proto.Pstats.invalidations )
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

(* --- scheduling order ------------------------------------------------------ *)

type op = Tick of int | Load of int | Store of int | Yield

let gen_programs =
  QCheck2.Gen.(
    int_range 2 12 >>= fun n ->
    list_repeat n
      (list_size (int_range 0 40)
         (frequency
            [
              (2, map (fun k -> Tick k) (int_range 1 30));
              (3, map (fun b -> Load b) (int_range 0 7));
              (3, map (fun b -> Store b) (int_range 0 7));
              (1, return Yield);
            ])))

(* Run one program per thread, recording host-side, in the order the
   accesses execute, each access's (cycle, issue number, thread). The
   issue number counts accesses in the order threads issue them: an
   access enters the run queue at the moment it is issued, so
   it is also the queue's enqueue order. *)
let run_programs ~proto progs =
  let eng = Engine.create (Config.single_socket ()) ~proto in
  let base = Memsys.alloc (Engine.memsys eng) ~bytes:(8 * 64) ~align:64 in
  let issued = ref 0 and log = ref [] in
  let access f =
    let now = Ops.now () and tid = Ops.tid () in
    incr issued;
    let i = !issued in
    f ();
    log := (now, i, tid) :: !log
  in
  let body prog () =
    List.iter
      (function
        | Tick k -> Ops.tick k
        | Load b -> access (fun () -> ignore (Ops.load (base + (64 * b)) ~size:8))
        | Store b -> access (fun () -> Ops.store (base + (64 * b)) ~size:8 1L)
        | Yield -> access Ops.yield)
      prog
  in
  ignore (Engine.run eng (Array.of_list (List.map body progs)));
  List.rev !log

(* Execution order is (cycle, enqueue order): time never decreases, and
   accesses at equal cycles run in the order they were issued. *)
let ordered log =
  let rec go = function
    | (t1, i1, _) :: ((t2, i2, _) :: _ as rest) ->
        (t1 < t2 || (t1 = t2 && i1 < i2)) && go rest
    | _ -> true
  in
  go log

let order_property ~proto name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name gen_programs (fun progs ->
         ordered (run_programs ~proto progs)))

let test_yield_lets_peer_run () =
  let order = ref [] in
  let note s = order := s :: !order in
  let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
  ignore
    (Engine.run eng
       [|
         (fun () ->
           note "t0 before";
           Ops.yield ();
           note "t0 after");
         (fun () -> note "t1");
       |]);
  Alcotest.(check (list string))
    "the peer at the same cycle runs first"
    [ "t0 before"; "t1"; "t0 after" ]
    (List.rev !order)

(* Enough same-cycle yields to wrap the engine's enqueue counter
   (2^20 per window): the round robin must survive the renumbering. *)
let test_yield_round_robin_long () =
  let n = 3 and rounds = 400_000 in
  let turn = ref 0 and out_of_turn = ref 0 in
  let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
  ignore
    (Engine.run eng
       (Array.init n (fun tid () ->
            for _ = 1 to rounds do
              if !turn mod n <> tid then incr out_of_turn;
              incr turn;
              Ops.yield ()
            done)));
  Alcotest.(check int) "every turn taken" (n * rounds) !turn;
  Alcotest.(check int) "strict round robin" 0 !out_of_turn

(* A suspension allocates the continuation and nothing else: 24 threads
   in lockstep, each loading and storing its own private line. The loop's own share is the
   boxed [int64] a load returns. When each suspension built a payload
   tuple, closures and a boxed value, this read 28 words per access. *)
let test_suspend_allocation_budget () =
  let cfg = Config.dual_socket () in
  let eng = Engine.create cfg ~proto:`Mesi in
  let ms = Engine.memsys eng in
  let nthreads = Config.num_threads cfg and iters = 2000 in
  Alcotest.(check int) "24 threads" 24 nthreads;
  let body a () =
    for _ = 1 to iters do
      ignore (Ops.load a ~size:8 : int64);
      Ops.store a ~size:8 7L
    done
  in
  let bodies =
    Array.init nthreads (fun _ -> body (Memsys.alloc ms ~bytes:64 ~align:64))
  in
  let before = Gc.minor_words () in
  ignore (Engine.run eng bodies : int);
  let per_access =
    (Gc.minor_words () -. before) /. float_of_int (2 * iters * nthreads)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per access (budget 6)" per_access)
    true (per_access <= 6.)

(* Fork and hand-off complete inside the running thread's turn: neither
   takes time nor requeues the thread. Thread 0 loads two lines, then
   forks: its fiber parks, and the fork's body loads two more lines and
   returns, which finishes thread 0. Thread 1 loads eight lines and hands
   off to the parked fiber, which resumes on thread 1, so its body's
   return does not finish the thread, and loads two lines there. Without
   parking, the same loads (four on thread 0, then ten on thread 1) give
   the same end clocks, makespan and stats. *)
let test_fork_and_hand_off () =
  let go ~park =
    let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
    let ms = Engine.memsys eng in
    let lines n = Array.init n (fun _ -> Memsys.alloc ms ~bytes:64 ~align:64) in
    let a = lines 2 and b = lines 2 and c = lines 8 and d = lines 2 in
    let loads ls = Array.iter (fun x -> ignore (Ops.load x ~size:8)) ls in
    let ends = Array.make 2 0 and parked = ref None and resumed_on = ref (-1) in
    let thread0 () =
      loads a;
      if park then begin
        let t0 = Ops.now () in
        Ops.fork
          ~park:(fun k -> parked := Some k)
          (fun () ->
            Alcotest.(check (pair int int)) "fork body: same thread, same cycle"
              (0, t0) (Ops.tid (), Ops.now ());
            loads b;
            ends.(0) <- Ops.now ());
        resumed_on := Ops.tid ();
        loads d;
        ends.(1) <- Ops.now ()
      end
      else begin
        loads b;
        ends.(0) <- Ops.now ()
      end
    and thread1 () =
      loads c;
      if park then
        match !parked with
        | Some k -> Ops.hand_off k
        | None -> Alcotest.fail "thread 0 has not forked yet"
      else begin
        loads d;
        ends.(1) <- Ops.now ()
      end
    in
    let span = Engine.run eng [| thread0; thread1 |] in
    (span, Array.to_list ends, Memsys.sstats ms, !resumed_on)
  in
  let span, ends, stats, resumed_on = go ~park:true in
  let span', ends', stats', _ = go ~park:false in
  Alcotest.(check int) "resumed on the handing-off thread" 1 resumed_on;
  Alcotest.(check (list int)) "end clocks" ends' ends;
  Alcotest.(check int) "makespan" span' span;
  Alcotest.(check bool) "stats" true (stats = stats');
  Alcotest.(check int) "thread 1 retired its own and the resumed loads" 10
    stats.Sstats.per_thread_instructions.(1)

(* An exception escapes [Engine.run] as itself, from any depth of
   handler-driven turns. Each of four threads forks and hands its own
   parked fiber back 2000 times, with a load in every fork's body; then
   thread 0 forks once more and raises from that body. The ambient [Ops]
   slot is restored, so an access outside a run is unhandled again, and
   a fresh engine then runs the same program, without the raise, to the
   stats of a run made before any exception. *)
exception Boom

let test_exception_escapes_run () =
  let threads = 4 and rounds = 2000 in
  let handoffs = ref 0 in
  let go ~raise_at_end =
    let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
    let ms = Engine.memsys eng in
    let body a () =
      let parked = ref None in
      for _ = 1 to rounds do
        Ops.fork
          ~park:(fun k -> parked := Some k)
          (fun () ->
            ignore (Ops.load a ~size:8 : int64);
            incr handoffs;
            Ops.hand_off (Option.get !parked))
      done;
      if raise_at_end && Ops.tid () = 0 then
        Ops.fork ~park:ignore (fun () ->
            ignore (Ops.load a ~size:8 : int64);
            raise Boom)
    in
    let bodies =
      Array.init threads (fun _ -> body (Memsys.alloc ms ~bytes:64 ~align:64))
    in
    let cycles = Engine.run eng bodies in
    (cycles, Sstats.copy (Memsys.sstats ms))
  in
  let cycles, stats = go ~raise_at_end:false in
  Alcotest.(check int) "loads" (threads * rounds) stats.Sstats.loads;
  handoffs := 0;
  Alcotest.check_raises "the body's exception" Boom (fun () ->
      ignore (go ~raise_at_end:true));
  Alcotest.(check bool) "thread 0 raised after its hand-offs" true
    (!handoffs >= rounds);
  (match Ops.load 0 ~size:8 with
  | _ -> Alcotest.fail "Ops.load ran outside a run"
  | exception Effect.Unhandled _ -> ());
  let cycles', stats' = go ~raise_at_end:false in
  Alcotest.(check int) "next run's makespan" cycles cycles';
  Alcotest.(check bool) "next run's stats" true (stats = stats')

(* Snapshot and restore are legal only between runs. The running thread
   stays in the run queue for its whole turn, so a call from inside a
   run is refused even from the last thread, with or without a buffered
   store. *)
let test_no_snapshot_mid_run () =
  let in_run f () =
    let eng = Engine.create (Config.single_socket ()) ~proto:`Mesi in
    let a = Memsys.alloc (Engine.memsys eng) ~bytes:8 ~align:8 in
    let snap = Warden_util.Bin.writer () in
    Engine.snapshot eng snap;
    ignore (Engine.run eng [| (fun () -> f eng a snap) |])
  in
  let refused = Invalid_argument "Engine.snapshot: run in progress" in
  Alcotest.check_raises "snapshot, store buffer empty" refused
    (in_run (fun eng _ _ -> Engine.snapshot eng (Warden_util.Bin.writer ())));
  Alcotest.check_raises "snapshot, one buffered store" refused
    (in_run (fun eng a _ ->
         Ops.store a ~size:8 1L;
         Engine.snapshot eng (Warden_util.Bin.writer ())));
  Alcotest.check_raises "restore"
    (Invalid_argument "Engine.restore: run in progress")
    (in_run (fun eng _ snap ->
         Engine.restore eng
           (Warden_util.Bin.reader (Warden_util.Bin.contents snap))))

let suite =
  [
    Alcotest.test_case "tick accounting" `Quick test_tick_accounting;
    Alcotest.test_case "stall accounting" `Quick test_stall_is_not_instructions;
    Alcotest.test_case "makespan" `Quick test_makespan_is_max;
    Alcotest.test_case "store buffer hides latency" `Quick
      test_store_buffer_hides_latency;
    Alcotest.test_case "store buffer fills" `Quick test_store_buffer_fills_up;
    Alcotest.test_case "rmw is a fence" `Quick test_rmw_drains_store_buffer;
    Alcotest.test_case "smt shares the L1" `Quick test_smt_threads_share_l1;
    Alcotest.test_case "zero fill" `Quick test_zero_fill_counted;
    Alcotest.test_case "inputs come from dram" `Quick
      test_initialized_input_comes_from_dram;
    Alcotest.test_case "multi-phase runs" `Quick test_engine_multi_phase;
    Alcotest.test_case "thread limit" `Quick test_too_many_threads_rejected;
    Alcotest.test_case "deterministic interleaving" `Quick
      test_deterministic_interleaving;
    order_property ~proto:`Mesi "order: random programs, mesi";
    order_property ~proto:`Warden "order: random programs, warden";
    Alcotest.test_case "yield lets a same-cycle peer run" `Quick
      test_yield_lets_peer_run;
    Alcotest.test_case "yield round robin across seq renumbering" `Quick
      test_yield_round_robin_long;
    Alcotest.test_case "suspension allocation budget" `Quick
      test_suspend_allocation_budget;
    Alcotest.test_case "fork and hand-off stay in the turn" `Quick
      test_fork_and_hand_off;
    Alcotest.test_case "an exception escapes the run" `Quick
      test_exception_escapes_run;
    Alcotest.test_case "no snapshot or restore mid-run" `Quick
      test_no_snapshot_mid_run;
  ]

let () = Alcotest.run "warden-engine" [ ("engine", suite) ]
