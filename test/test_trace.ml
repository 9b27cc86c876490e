(* Tests for the trace layer: the offline WARD classifier (§3.1 / Fig. 3)
   and the live disentanglement/WARD oracles. *)

open Warden_trace
open Warden_machine
open Warden_sim
open Warden_runtime

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let ev thread write addr value = { Wardprop.thread; write; addr; value }

(* --- Wardprop: the Figure 3 events ----------------------------------------- *)

let test_event1_raw () =
  match Wardprop.classify [ ev 0 true 0 1L; ev 1 false 0 0L ] with
  | Wardprop.Raw_dependence { writer = 0; reader = 1; addr = 0 } -> ()
  | _ -> Alcotest.fail "expected RAW"

let test_event2_waw_ordered () =
  match Wardprop.classify [ ev 0 true 0 1L; ev 1 true 0 2L ] with
  | Wardprop.Waw_ordered { first = 0; second = 1; addr = 0 } -> ()
  | _ -> Alcotest.fail "expected ordered WAW"

let test_event3_waw_apathetic () =
  Alcotest.(check bool) "same-value WAW is WARD" true
    (Wardprop.is_ward [ ev 0 true 0 1L; ev 1 true 0 1L ])

let test_private_data_is_ward () =
  (* A single thread reading and writing its own data is always WARD. *)
  Alcotest.(check bool) "own RAW fine" true
    (Wardprop.is_ward [ ev 0 true 0 1L; ev 0 false 0 1L; ev 0 true 0 2L ])

let test_read_only_sharing_is_ward () =
  Alcotest.(check bool) "pure reads fine" true
    (Wardprop.is_ward [ ev 0 false 0 0L; ev 1 false 0 0L; ev 2 false 0 0L ])

let test_raw_after_apathetic_waw () =
  (* The sieve pattern plus a cross-thread read: not WARD. *)
  match Wardprop.classify [ ev 0 true 4 0L; ev 1 true 4 0L; ev 2 false 4 0L ] with
  | Wardprop.Raw_dependence { reader = 2; _ } -> ()
  | _ -> Alcotest.fail "expected RAW by the third thread"

let test_empty_trace_is_ward () =
  Alcotest.(check bool) "no events, no dependences" true (Wardprop.is_ward [])

let test_single_event_is_ward () =
  List.iter
    (fun e ->
      Alcotest.(check bool) "one event cannot depend on anything" true
        (Wardprop.is_ward [ e ]))
    [ ev 0 true 0 1L; ev 3 false 17 0L ]

let test_first_dependence_wins () =
  (* Two cross-thread RAW dependences; the classifier reports the one that
     appears first in stream order (thread 1 reading thread 0's write to
     address 10), not the later one at address 20. *)
  let trace =
    [ ev 0 true 10 1L; ev 1 true 20 2L; ev 1 false 10 0L; ev 0 false 20 0L ]
  in
  match Wardprop.classify trace with
  | Wardprop.Raw_dependence { addr = 10; writer = 0; reader = 1 } -> ()
  | _ -> Alcotest.fail "expected the stream-order-first RAW at addr 10"

let test_same_value_waw_stream () =
  (* An apathetic (same-value) WAW does not end the scan: the write is
     absorbed and a later genuine dependence is still found. *)
  match
    Wardprop.classify [ ev 0 true 0 5L; ev 1 true 0 5L; ev 2 true 0 9L ]
  with
  | Wardprop.Waw_ordered { addr = 0; first = 1; second = 2 } -> ()
  | _ -> Alcotest.fail "expected ordered WAW against the absorbed writer"

let wardprop_single_thread_always_ward =
  qtest ~count:200 "single-threaded traces are always WARD"
    QCheck2.Gen.(list (triple bool (int_range 0 50) (int_range 0 5)))
    (fun ops ->
      Wardprop.is_ward
        (List.map (fun (w, a, v) -> ev 0 w a (Int64.of_int v)) ops))

let wardprop_disjoint_threads_always_ward =
  qtest ~count:200 "threads touching disjoint addresses are WARD"
    QCheck2.Gen.(list (triple (int_range 0 3) bool (int_range 0 50)))
    (fun ops ->
      (* Thread t only touches addresses congruent to t mod 4. *)
      Wardprop.is_ward
        (List.map (fun (t, w, a) -> ev t w ((a * 4) + t) 7L) ops))

(* --- Live oracle -------------------------------------------------------------- *)

let run_with_oracle prog =
  let eng = Engine.create (Config.single_socket ()) ~proto:`Warden in
  Oracle.with_oracle (fun () -> fst (Par.run eng prog))

let test_oracle_clean_program () =
  let _, report =
    run_with_oracle (fun () ->
        Par.parreduce ~grain:8 0 256
          ~map:(fun i ->
            let a = Par.alloc ~bytes:64 in
            Par.write a ~size:8 (Int64.of_int i);
            Int64.to_int (Par.read a ~size:8))
          ~combine:( + ) ~init:0)
  in
  Alcotest.(check bool) "clean" true (Result.is_ok (Oracle.check_clean report));
  Alcotest.(check bool) "saw accesses" true (report.Oracle.accesses > 256);
  Alcotest.(check bool) "some accesses in ward regions" true
    (report.Oracle.ward_accesses > 0)

let test_oracle_counts () =
  let _, report =
    run_with_oracle (fun () ->
        let a = Par.alloc ~bytes:8 in
        Par.write a ~size:8 1L;
        ignore (Par.read a ~size:8))
  in
  Alcotest.(check int) "exactly two program accesses" 2 report.Oracle.accesses

let test_ward_fraction () =
  let r =
    {
      Oracle.accesses = 200;
      ward_accesses = 50;
      reads = 200;
      writes = 0;
      rmws = 0;
      distinct_blocks = 1;
      shared_blocks = 0;
      ward_verdict = `Ward;
      disentanglement_violations = [];
      ward_violations = [];
    }
  in
  Alcotest.(check (float 1e-9)) "fraction" 0.25 (Oracle.ward_fraction r)

let test_check_clean_reports () =
  let r =
    {
      Oracle.accesses = 1;
      ward_accesses = 0;
      reads = 1;
      writes = 0;
      rmws = 0;
      distinct_blocks = 1;
      shared_blocks = 0;
      ward_verdict = `Ward;
      disentanglement_violations = [ "bad" ];
      ward_violations = [];
    }
  in
  match Oracle.check_clean r with
  | Error msg -> Alcotest.(check bool) "mentions violation" true (String.length msg > 0)
  | Ok () -> Alcotest.fail "expected error"

(* A deliberately entangled program must be caught: it leaks a pointer to a
   sibling's heap through a shared cell — sibling heaps are not on each
   other's root paths. *)
let test_oracle_catches_entanglement () =
  let _, report =
    run_with_oracle (fun () ->
        let shared = Par.alloc ~bytes:8 in
        let _ =
          Par.par2
            (fun () ->
              let mine = Par.alloc ~bytes:8 in
              Par.write mine ~size:8 42L;
              Par.write shared ~size:8 (Int64.of_int mine);
              (* Keep running so the sibling can observe the leak. *)
              Par.tick 4000)
            (fun () ->
              Par.tick 200;
              let rec wait n =
                if n > 0 then begin
                  let p = Par.read shared ~size:8 in
                  if p <> 0L then
                    (* Entangled: touching a sibling-heap address. *)
                    ignore (Par.read (Int64.to_int p) ~size:8)
                  else begin
                    Par.tick 50;
                    wait (n - 1)
                  end
                end
              in
              wait 50)
        in
        ())
  in
  Alcotest.(check bool) "entanglement detected" true
    (report.Oracle.disentanglement_violations <> [])

let suite =
  [
    Alcotest.test_case "fig3 event 1 (RAW)" `Quick test_event1_raw;
    Alcotest.test_case "fig3 event 2 (ordered WAW)" `Quick test_event2_waw_ordered;
    Alcotest.test_case "fig3 event 3 (apathetic WAW)" `Quick test_event3_waw_apathetic;
    Alcotest.test_case "private data is WARD" `Quick test_private_data_is_ward;
    Alcotest.test_case "read-only sharing is WARD" `Quick test_read_only_sharing_is_ward;
    Alcotest.test_case "RAW after apathetic WAW" `Quick test_raw_after_apathetic_waw;
    Alcotest.test_case "empty trace is WARD" `Quick test_empty_trace_is_ward;
    Alcotest.test_case "single event is WARD" `Quick test_single_event_is_ward;
    Alcotest.test_case "first dependence in stream order wins" `Quick
      test_first_dependence_wins;
    Alcotest.test_case "apathetic WAW absorbs the writer" `Quick
      test_same_value_waw_stream;
    wardprop_single_thread_always_ward;
    wardprop_disjoint_threads_always_ward;
    Alcotest.test_case "oracle: clean program" `Quick test_oracle_clean_program;
    Alcotest.test_case "oracle: access counting" `Quick test_oracle_counts;
    Alcotest.test_case "oracle: ward fraction" `Quick test_ward_fraction;
    Alcotest.test_case "oracle: error reporting" `Quick test_check_clean_reports;
    Alcotest.test_case "oracle: catches entanglement" `Quick
      test_oracle_catches_entanglement;
  ]

let () = Alcotest.run "warden-trace" [ ("trace", suite) ]
