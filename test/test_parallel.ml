(* Host-parallel determinism of a conflict-heavy kernel.

   One simulation always runs on one host domain; host parallelism comes
   from running independent simulations side by side through Pool.map
   (--jobs). This holds a contended pingpong kernel — every simulated
   thread hammers one shared counter while writing its own lane — to
   bit-identity between a run on the calling domain and copies fanned
   across worker domains, under both protocols. The case name predates
   the removal of the speculative engine and is kept as it was. *)

open Warden_machine
open Warden_harness

let nthreads cfg = min 8 (Config.num_threads cfg)

let pingpong proto =
  let cfg = Config.dual_socket () in
  let eng = Warden_sim.Engine.create cfg ~proto in
  let ms = Warden_sim.Engine.memsys eng in
  let ctr = Warden_sim.Memsys.alloc ms ~bytes:8 ~align:64 in
  let n = nthreads cfg in
  let lanes = Warden_sim.Memsys.alloc ms ~bytes:(n * 64) ~align:64 in
  let body t () =
    let open Warden_sim.Engine.Ops in
    let mine = lanes + (t * 64) in
    for i = 0 to 149 do
      ignore (fetch_add ctr ~size:8 1L);
      store mine ~size:8 (Int64.of_int (i + t));
      ignore (load mine ~size:8);
      tick 1
    done
  in
  let mk = Warden_sim.Engine.run eng (Array.init n body) in
  Warden_sim.Memsys.flush_all ms;
  ( mk,
    Warden_sim.Memsys.peek ms ctr ~size:8,
    Warden_sim.Memsys.sstats ms,
    Warden_sim.Memsys.pstats ms,
    Warden_proto.Protocol.dump (Warden_sim.Memsys.protocol ms) )

let check_pingpong label (mk0, v0, st0, ps0, dump0) (mk, v, st, ps, dump) =
  Alcotest.(check int) (label ^ ": makespan") mk0 mk;
  Alcotest.(check int64) (label ^ ": counter") v0 v;
  Alcotest.(check bool) (label ^ ": sstats") true (st0 = st);
  Alcotest.(check bool) (label ^ ": pstats") true (ps0 = ps);
  Alcotest.(check string) (label ^ ": directory") dump0 dump

let pingpong_sweep_test () =
  List.iter
    (fun (proto, pname) ->
      let base = pingpong proto in
      let _, v0, _, _, _ = base in
      Alcotest.(check int64)
        (pname ^ ": counter totals all increments")
        (Int64.of_int (150 * nthreads (Config.dual_socket ())))
        v0;
      List.iteri
        (fun i r ->
          check_pingpong (Printf.sprintf "%s copy %d on jobs=2" pname i) base r)
        (Pool.map ~jobs:2 (fun () -> pingpong proto) [ (); (); () ]))
    [ (`Mesi, "mesi"); (`Warden, "warden") ]

let suite =
  [
    Alcotest.test_case "pingpong conflict sweep (speculation on)" `Quick
      pingpong_sweep_test;
  ]

let () = Alcotest.run "warden-parallel" [ ("parallel", suite) ]
