(* Determinism tests: the same run twice gives the same simulated
   cycles, event and protocol statistics, energy and final memory image,
   on fixed fork-tree shapes, random programs and real benchmarks. A
   direct engine program that draws every operation kind also pins a
   digest of everything it observes, so a change to the engine that
   moves any simulated event, or any recorded event's timestamp, fails
   it. *)

open Warden_machine
open Warden_sim
open Warden_runtime


(* --- fork-tree programs (same shape family as test_random_programs) --- *)

type prog = Leaf of int | Node of prog * prog

let rec size = function Leaf _ -> 1 | Node (l, r) -> 1 + size l + size r

let gen_prog =
  QCheck2.Gen.(
    sized_size (int_range 1 24)
    @@ fix (fun self n ->
           if n <= 1 then map (fun w -> Leaf w) (int_range 1 24)
           else
             frequency
               [
                 (1, map (fun w -> Leaf w) (int_range 1 24));
                 ( 3,
                   map2
                     (fun l r -> Node (l, r))
                     (self (n / 2))
                     (self (n - 1 - (n / 2))) );
               ]))

let out_len = 24

let interpret ~input ~scratch prog =
  let rec go path slot prog =
    let out = Sarray.create ~len:out_len ~elt_bytes:8 in
    (match prog with
    | Leaf work ->
        for i = 0 to out_len - 1 do
          Par.tick 1;
          Sarray.set out i
            (Int64.add
               (Sarray.get input ((path + (i * work)) mod Sarray.length input))
               (Int64.of_int ((path * 1000) + i)))
        done
    | Node (l, r) ->
        let lo, ro =
          Par.par2
            (fun () -> go ((2 * path) + 1) (slot + 1) l)
            (fun () -> go ((2 * path) + 2) (slot + 1 + size l) r)
        in
        for i = 0 to out_len - 1 do
          Par.tick 1;
          Sarray.set out i (Int64.logxor (Sarray.get lo i) (Sarray.get ro i))
        done);
    for i = 0 to out_len - 1 do
      Sarray.set scratch ((slot * out_len) + i) (Sarray.get out i)
    done;
    out
  in
  go 0 0 prog

(* Everything observable about one simulation run. *)
type snapshot = {
  makespan : int;
  sstats : Sstats.t;
  pstats : Warden_proto.Pstats.t;
  energy : float * float * float;
  out : int64 array;
  scratch : int64 array;
}

let run_tree proto prog =
  let eng = Engine.create (Config.dual_socket ()) ~proto in
  let ms = Engine.memsys eng in
  let ntasks = size prog in
  let (out, scratch), _ =
    Par.run eng (fun () ->
        let input = Sarray.create ~len:256 ~elt_bytes:8 in
        Warden_pbbs.Bkit.gen_ints ms input ~seed:17L ~bound:1_000_003L;
        let scratch = Sarray.create ~len:(ntasks * out_len) ~elt_bytes:8 in
        (interpret ~input ~scratch prog, scratch))
  in
  Memsys.flush_all ms;
  let en = Memsys.energy ms in
  {
    makespan = (Memsys.sstats ms).Sstats.cycles;
    sstats = Memsys.sstats ms;
    pstats = Memsys.pstats ms;
    energy = (Energy.network_pj en, Energy.processor_pj en, Energy.total_pj en);
    out = Array.init out_len (fun i -> Sarray.peek_host ms out i);
    scratch = Array.init (ntasks * out_len) (fun i -> Sarray.peek_host ms scratch i);
  }

let snap_equal a b =
  a.makespan = b.makespan && a.sstats = b.sstats && a.pstats = b.pstats
  && a.energy = b.energy && a.out = b.out && a.scratch = b.scratch

let check_snap_equal label a b =
  (* Headline fields first for a readable failure, then the whole thing. *)
  Alcotest.(check int) (label ^ ": makespan") a.makespan b.makespan;
  Alcotest.(check int)
    (label ^ ": instructions")
    a.sstats.Sstats.instructions b.sstats.Sstats.instructions;
  Alcotest.(check int)
    (label ^ ": sb_stalls") a.sstats.Sstats.sb_stalls b.sstats.Sstats.sb_stalls;
  Alcotest.(check int)
    (label ^ ": invalidations")
    a.pstats.Warden_proto.Pstats.invalidations
    b.pstats.Warden_proto.Pstats.invalidations;
  Alcotest.(check bool) (label ^ ": full snapshot") true (snap_equal a b)

let protos = [ (`Mesi, "mesi"); (`Warden, "warden") ]

let fixed_shapes =
  let rec left n = if n = 0 then Leaf 3 else Node (left (n - 1), Leaf 1) in
  let rec right n = if n = 0 then Leaf 5 else Node (Leaf 2, right (n - 1)) in
  let rec bal n = if n = 0 then Leaf 7 else Node (bal (n - 1), bal (n - 1)) in
  [ ("single leaf", Leaf 4); ("left spine", left 6); ("right spine", right 6);
    ("balanced depth 4", bal 4) ]

(* 1. Determinism: the same run twice gives the same everything. *)
let determinism_tests =
  List.map
    (fun (name, prog) ->
      Alcotest.test_case ("repeat run: " ^ name) `Quick (fun () ->
          List.iter
            (fun (proto, pname) ->
              check_snap_equal
                (Printf.sprintf "%s/%s" name pname)
                (run_tree proto prog) (run_tree proto prog))
            protos))
    fixed_shapes

let prop_repeat prog =
  List.for_all
    (fun (proto, _) -> snap_equal (run_tree proto prog) (run_tree proto prog))
    protos

let qtest =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:15
       ~name:"random programs: repeat run (both protocols)"
       ~print:(fun p ->
         let rec pp = function
           | Leaf w -> Printf.sprintf "L%d" w
           | Node (l, r) -> Printf.sprintf "(%s %s)" (pp l) (pp r)
         in
         pp p)
       gen_prog prop_repeat)

(* 2. Every operation kind, straight on the engine: eight threads draw
   loads, stores, RMWs, yields, WARD region adds and removes, and
   acquire/release fences over a few shared and private blocks, so many
   accesses miss. All four protocols at obs level full. Two runs must
   agree in every thread's results and end time, the stats, the energy,
   the memory image and the recorded event stream with its timestamps,
   and the whole must hash to the digest pinned below. *)
let all_protos = [ (`Mesi, "mesi"); (`Warden, "warden"); (`Msi_bus, "msi_bus"); (`Sisd, "sisd") ]

let run_ops proto =
  let module R = Warden_util.Splitmix in
  let module Ops = Engine.Ops in
  let cfg = { (Config.dual_socket ()) with Config.obs_level = Config.Obs_full } in
  let eng = Engine.create cfg ~proto in
  let ms = Engine.memsys eng in
  let nthreads = 8 and shared = 6 in
  let base = Memsys.alloc ms ~bytes:(64 * (shared + nthreads)) ~align:4096 in
  let results = Array.make nthreads [] in
  let body tid () =
    let rng = R.make (Int64.of_int (0x5EED + tid)) in
    let own = base + (64 * (shared + tid)) in
    let note v = results.(tid) <- v :: results.(tid) in
    let in_region = ref false in
    for _ = 1 to 400 do
      let addr =
        if R.int rng 3 = 0 then own + (8 * R.int rng 8)
        else base + (64 * R.int rng shared) + (8 * R.int rng 8)
      in
      (match R.int rng 20 with
      | 0 | 1 | 2 | 3 | 4 | 5 -> note (Ops.load addr ~size:8)
      | 6 | 7 | 8 | 9 | 10 -> Ops.store addr ~size:8 (R.next rng)
      | 11 | 12 -> note (Ops.fetch_add addr ~size:8 1L)
      | 13 -> Ops.yield ()
      | 14 ->
          if !in_region then Ops.region_remove ~lo:own ~hi:(own + 64)
          else note (if Ops.region_add ~lo:own ~hi:(own + 64) then 1L else 0L);
          in_region := not !in_region
      | 15 -> Ops.acquire ()
      | 16 -> Ops.release ()
      | _ -> Ops.tick (1 + R.int rng 4));
      if R.int rng 4 = 0 then Ops.tick (R.int rng 30)
    done;
    if !in_region then Ops.region_remove ~lo:own ~hi:(own + 64);
    note (Int64.of_int (Ops.now ()))
  in
  let makespan = Engine.run eng (Array.init nthreads body) in
  let obs = Memsys.obs ms in
  let trace = Buffer.create 4096 in
  Warden_obs.Sink_chrome.write trace ~runs:[ (1, "run", Warden_obs.Obs.chrome obs) ];
  Memsys.flush_all ms;
  let bytes save =
    let w = Warden_util.Bin.writer () in
    save w;
    Bytes.to_string (Warden_util.Bin.contents w)
  in
  let int64s l = String.concat "," (List.map Int64.to_string l) in
  [
    ("makespan", string_of_int makespan);
    ("thread results", String.concat ";" (Array.to_list (Array.map int64s results)));
    ("sstats", bytes (Sstats.save (Memsys.sstats ms)));
    ("pstats", bytes (Warden_proto.Pstats.save (Memsys.pstats ms)));
    ("energy", bytes (Energy.save (Memsys.energy ms)));
    ( "memory image",
      int64s (List.init ((shared + nthreads) * 8) (fun i -> Memsys.peek ms (base + (8 * i)) ~size:8)) );
    ("obs summary", Warden_obs.Obs.render_summary obs);
    ("events with timestamps", Buffer.contents trace);
  ]

(* MD5 of the observables, each as "name=value", joined by NUL bytes.
   Recorded from the fully scheduled engine, where every access
   suspended, before the engine's inline access path was deleted. *)
let pinned_digests =
  [
    ("mesi", "97ea77f7672ef2111f1fbfc362f18998");
    ("warden", "62bb5b157e0a8de47bade33a285cff05");
    ("msi_bus", "bf5dec0b5dc371c31c3a92b7ae2635d5");
    ("sisd", "c0917d37483b3f07431db0c5daab46ed");
  ]

let digest observables =
  Digest.to_hex
    (Digest.string
       (String.concat "\000" (List.map (fun (what, v) -> what ^ "=" ^ v) observables)))

let test_every_op () =
  List.iter
    (fun (proto, pname) ->
      let first = run_ops proto in
      let _, events = List.nth first (List.length first - 1) in
      Alcotest.(check bool) (pname ^ ": events recorded") true (String.length events > 1000);
      List.iter2
        (fun (what, a) (_, b) ->
          Alcotest.(check bool) (Printf.sprintf "%s repeat: %s" pname what) true (a = b))
        first (run_ops proto);
      Alcotest.(check string)
        (pname ^ ": pinned digest")
        (List.assoc pname pinned_digests)
        (digest first))
    all_protos

(* 3. Real benchmarks, full run_result (includes derived floats and the
   verified bit). *)
let bench_differential name =
  Alcotest.test_case ("benchmark: " ^ name) `Quick (fun () ->
      let spec = Option.get (Warden_pbbs.Suite.find name) in
      List.iter
        (fun (proto, pname) ->
          let run () =
            Warden_harness.Exp.run_bench ~quick:true
              ~config:(Config.dual_socket ()) ~proto spec
          in
          let first = run () and second = run () in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s verified" name pname)
            true first.Warden_harness.Exp.verified;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s cycles" name pname)
            first.Warden_harness.Exp.cycles second.Warden_harness.Exp.cycles;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s full result" name pname)
            true (first = second))
        protos)

let suite =
  determinism_tests
  @ [ qtest; Alcotest.test_case "every op kind, four protocols, obs full" `Quick
          test_every_op ]
  @ List.map bench_differential [ "fib"; "palindrome"; "msort" ]

let () = Alcotest.run "warden-determinism" [ ("determinism", suite) ]
