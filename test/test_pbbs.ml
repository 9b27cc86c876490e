(* Integration tests: every PBBS benchmark runs at a small scale under both
   protocols, its output verifies against a host-side reference, and the
   disentanglement / WARD oracles observe no violations. *)

open Warden_machine
open Warden_sim
open Warden_pbbs

let test_scale = function
  | "fib" -> 14
  | "make_array" -> 20_000
  | "primes" -> 4_000
  | "msort" -> 3_000
  | "dedup" -> 4_000
  | "dmm" -> 32
  | "nqueens" -> 7
  | "grep" -> 20_000
  | "tokens" -> 20_000
  | "palindrome" -> 4_000
  | "quickhull" -> 3_000
  | "ray" -> 24
  | "suffix_array" -> 500
  | "nn" -> 1_200
  | name -> Alcotest.failf "unknown benchmark %s" name

let run_one proto (spec : Spec.t) () =
  let eng = Engine.create (Config.single_socket ()) ~proto in
  let verified, report =
    Warden_trace.Oracle.with_oracle (fun () ->
        spec.Spec.run ~scale:(test_scale spec.Spec.name) ~seed:42L eng)
  in
  Alcotest.(check bool) (spec.Spec.name ^ " verified") true verified;
  (match Warden_sim.Memsys.check_invariants (Engine.memsys eng) with
  | Ok () -> ()
  | Error msg ->
      Alcotest.failf "%s coherence invariants violated:\n%s" spec.Spec.name msg);
  match Warden_trace.Oracle.check_clean report with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s oracle violations:\n%s" spec.Spec.name msg

let dual_socket_agreement (spec : Spec.t) () =
  (* Same program, dual socket, both protocols: both must verify. *)
  List.iter
    (fun proto ->
      let eng = Engine.create (Config.dual_socket ()) ~proto in
      let ok = spec.Spec.run ~scale:(test_scale spec.Spec.name) ~seed:7L eng in
      Alcotest.(check bool) (spec.Spec.name ^ " dual-socket verified") true ok)
    [ `Mesi; `Warden ]

let suite =
  List.concat_map
    (fun (spec : Spec.t) ->
      [
        Alcotest.test_case (spec.Spec.name ^ " mesi") `Quick (run_one `Mesi spec);
        Alcotest.test_case (spec.Spec.name ^ " warden") `Quick
          (run_one `Warden spec);
      ])
    Suite.all

let dual_suite =
  List.map
    (fun (spec : Spec.t) ->
      Alcotest.test_case (spec.Spec.name ^ " dual") `Slow
        (dual_socket_agreement spec))
    Suite.all

(* Each benchmark with a different seed: input generators must not be
   accidentally seed-independent, and verification must still hold. *)
let reseeded (spec : Spec.t) () =
  let eng = Engine.create (Config.single_socket ()) ~proto:`Warden in
  let ok = spec.Spec.run ~scale:(test_scale spec.Spec.name) ~seed:987654321L eng in
  Alcotest.(check bool) (spec.Spec.name ^ " verified with seed 2") true ok

let seed_suite =
  List.map
    (fun (spec : Spec.t) ->
      Alcotest.test_case (spec.Spec.name ^ " reseeded") `Quick (reseeded spec))
    Suite.all

(* The oracle's offline profile: every marked region across the whole
   suite must classify as WARD over its whole lifetime (stronger than the
   incremental checks), and the access counts must be consistent. *)
let recorded (spec : Spec.t) () =
  let eng = Engine.create (Config.single_socket ()) ~proto:`Warden in
  let ok, report =
    Warden_trace.Oracle.with_oracle (fun () ->
        spec.Spec.run ~scale:(test_scale spec.Spec.name) ~seed:3L eng)
  in
  Alcotest.(check bool) (spec.Spec.name ^ " verified under recorder") true ok;
  Alcotest.(check bool) "consistent counters" true
    (report.Warden_trace.Oracle.accesses
    = report.Warden_trace.Oracle.reads + report.Warden_trace.Oracle.writes
      + report.Warden_trace.Oracle.rmws);
  match report.Warden_trace.Oracle.ward_verdict with
  | `Ward -> ()
  | `Violations n ->
      Alcotest.failf "%s: %d region epochs violated WARD" spec.Spec.name n

let recorder_suite =
  List.map
    (fun (spec : Spec.t) ->
      Alcotest.test_case (spec.Spec.name ^ " recorded") `Quick (recorded spec))
    Suite.all

let () =
  Alcotest.run "warden-pbbs"
    [
      ("pbbs", suite);
      ("pbbs-dual", dual_suite);
      ("pbbs-seeds", seed_suite);
      ("pbbs-recorded", recorder_suite);
    ]
