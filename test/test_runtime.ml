(* Fork-join runtime tests: scheduling correctness, heap-hierarchy WARD
   marking, determinism, and MESI/WARDen agreement on program results. *)

open Warden_machine
open Warden_sim
open Warden_runtime
open Warden_proto

let run_with ?params ?workers ~proto cfg main =
  let eng = Engine.create cfg ~proto in
  let v, rs = Par.run ?params ?workers eng main in
  (v, rs, Engine.memsys eng)

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

let rec fib_par n =
  if n < 2 then begin
    Par.tick 2;
    n
  end
  else begin
    let a, b = Par.par2 (fun () -> fib_par (n - 1)) (fun () -> fib_par (n - 2)) in
    Par.tick 2;
    a + b
  end

let test_fib proto () =
  let v, rs, _ = run_with ~proto (Config.single_socket ()) (fun () -> fib_par 15) in
  Alcotest.(check int) "fib value" (fib_seq 15) v;
  Alcotest.(check bool) "forked a lot" true (rs.Par.forks > 100)

let test_fib_steals () =
  let _, rs, _ = run_with ~proto:`Mesi (Config.single_socket ()) (fun () -> fib_par 18) in
  Alcotest.(check bool)
    (Printf.sprintf "steals happened (%d)" rs.Par.steals)
    true (rs.Par.steals > 0)

let test_parfor_covers_all () =
  let n = 10_000 in
  let v, _, _ =
    run_with ~proto:`Mesi (Config.single_socket ()) (fun () ->
        let base = Par.alloc ~bytes:(8 * n) in
        Par.parfor ~grain:64 0 n (fun i ->
            Par.write (base + (8 * i)) ~size:8 (Int64.of_int (i * i)));
        (* Check each index exactly once, in the simulated memory. *)
        Par.parreduce ~grain:64 0 n
          ~map:(fun i ->
            if Par.read (base + (8 * i)) ~size:8 = Int64.of_int (i * i) then 1 else 0)
          ~combine:( + ) ~init:0)
  in
  Alcotest.(check int) "all cells correct" n v

let test_ward_regions_used () =
  let _, _, ms =
    run_with ~proto:`Warden (Config.single_socket ()) (fun () -> fib_par 14)
  in
  let ps = Memsys.pstats ms in
  Alcotest.(check bool) "regions added" true (ps.Pstats.ward_adds > 10);
  Alcotest.(check bool) "regions removed" true (ps.Pstats.ward_removes > 10);
  Alcotest.(check bool) "ward grants" true (ps.Pstats.ward_grants > 0);
  Alcotest.(check bool)
    "no leftover regions"
    true
    (ps.Pstats.ward_adds - ps.Pstats.ward_rejects >= ps.Pstats.ward_removes)

let test_mesi_no_regions () =
  let _, _, ms =
    run_with ~proto:`Mesi (Config.single_socket ()) (fun () -> fib_par 12)
  in
  let ps = Memsys.pstats ms in
  Alcotest.(check int) "mesi never grants ward" 0 ps.Pstats.ward_grants;
  Alcotest.(check bool) "region adds all rejected" true (ps.Pstats.ward_adds > 0);
  Alcotest.(check int)
    "rejects = adds" ps.Pstats.ward_adds ps.Pstats.ward_rejects

let test_determinism () =
  let go () =
    let _, rs, ms =
      run_with ~proto:`Warden (Config.dual_socket ()) (fun () -> fib_par 16)
    in
    ((Memsys.sstats ms).Sstats.cycles, rs.Par.steals, rs.Par.forks)
  in
  let a = go () and b = go () in
  Alcotest.(check (triple int int int)) "identical reruns" a b

(* The same program must compute the same result under both protocols, and
   the final flushed memory image must agree (reconciliation correctness on
   a disentangled program). *)
let sum_squares_program n () =
  let base = Par.alloc ~bytes:(8 * n) in
  Par.parfor ~grain:32 0 n (fun i ->
      Par.write (base + (8 * i)) ~size:8 (Int64.of_int (i * i)));
  let total =
    Par.parreduce ~grain:32 0 n
      ~map:(fun i -> Int64.to_int (Par.read (base + (8 * i)) ~size:8))
      ~combine:( + ) ~init:0
  in
  (base, total)

let test_protocol_agreement () =
  let n = 2048 in
  let (base_m, total_m), _, ms_m =
    run_with ~proto:`Mesi (Config.dual_socket ()) (sum_squares_program n)
  in
  let (base_w, total_w), _, ms_w =
    run_with ~proto:`Warden (Config.dual_socket ()) (sum_squares_program n)
  in
  Alcotest.(check int) "same total" total_m total_w;
  Memsys.flush_all ms_m;
  Memsys.flush_all ms_w;
  for i = 0 to n - 1 do
    let vm = Memsys.peek ms_m (base_m + (8 * i)) ~size:8 in
    let vw = Memsys.peek ms_w (base_w + (8 * i)) ~size:8 in
    if vm <> vw then Alcotest.failf "memory differs at %d: %Ld vs %Ld" i vm vw
  done

let test_warden_not_slower () =
  (* Even on a pathologically fine-grained fork workload (no sequential
     cutoff at all), WARDen's region-tracking overhead must stay small. *)
  let prog () =
    let _ = fib_par 16 in
    ()
  in
  let run proto =
    let _, _, ms = run_with ~proto (Config.dual_socket ()) prog in
    (Memsys.sstats ms).Sstats.cycles
  in
  let m = run `Mesi and w = run `Warden in
  Alcotest.(check bool)
    (Printf.sprintf "warden (%d) <= 1.10 * mesi (%d)" w m)
    true
    (float_of_int w <= 1.10 *. float_of_int m)

let test_nested_alloc_isolation () =
  (* Concurrent leaf tasks bump-allocate; their heaps must not overlap. *)
  let v, _, _ =
    run_with ~proto:`Warden (Config.single_socket ()) (fun () ->
        Par.parreduce ~grain:1 0 64
          ~map:(fun i ->
            let a = Par.alloc ~bytes:256 in
            for j = 0 to 31 do
              Par.write (a + (8 * j)) ~size:8 (Int64.of_int ((i * 1000) + j))
            done;
            let ok = ref true in
            for j = 0 to 31 do
              if Par.read (a + (8 * j)) ~size:8 <> Int64.of_int ((i * 1000) + j)
              then ok := false
            done;
            if !ok then 1 else 0)
          ~combine:( + ) ~init:0)
  in
  Alcotest.(check int) "every task saw its own data" 64 v

(* An exception raised in a stolen right child, three or more forks
   below the root, escapes [Par.run] as itself, however many parked
   parents it leaves behind. The next run on a fresh engine in this
   domain completes correctly: the ambient scheduler and engine slots
   were restored. *)
exception Boom of int

let test_exception_from_stolen_child () =
  let rec tree level =
    if level = 6 then begin
      Par.tick 40;
      1
    end
    else begin
      let forker = Engine.Ops.tid () in
      let a, b =
        Par.par2
          (fun () -> tree (level + 1))
          (fun () ->
            if level >= 3 && Engine.Ops.tid () <> forker then raise (Boom level);
            tree (level + 1))
      in
      a + b
    end
  in
  let cfg = Config.single_socket () in
  (match run_with ~workers:4 ~proto:`Warden cfg (fun () -> tree 0) with
  | _ -> Alcotest.fail "no right child three forks deep was stolen"
  | exception Boom level ->
      Alcotest.(check bool) "raised three or more forks deep" true (level >= 3));
  Alcotest.(check bool) "no ambient heap after the run" true
    (Par.current_heap () = None);
  let v, rs, _ = run_with ~workers:4 ~proto:`Warden cfg (fun () -> fib_par 14) in
  Alcotest.(check int) "the next run's result" (fib_seq 14) v;
  Alcotest.(check bool) "the next run stole" true (rs.Par.steals > 0)

let suite =
  [
    Alcotest.test_case "fib under mesi" `Quick (test_fib `Mesi);
    Alcotest.test_case "fib under warden" `Quick (test_fib `Warden);
    Alcotest.test_case "work stealing happens" `Quick test_fib_steals;
    Alcotest.test_case "parfor covers range" `Quick test_parfor_covers_all;
    Alcotest.test_case "ward regions used" `Quick test_ward_regions_used;
    Alcotest.test_case "mesi rejects regions" `Quick test_mesi_no_regions;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "protocol agreement" `Quick test_protocol_agreement;
    Alcotest.test_case "warden not slower on forks" `Quick test_warden_not_slower;
    Alcotest.test_case "leaf heap isolation" `Quick test_nested_alloc_isolation;
    Alcotest.test_case "exception from a stolen child" `Quick
      test_exception_from_stolen_child;
  ]

let () = Alcotest.run "warden-runtime" [ ("runtime", suite) ]
