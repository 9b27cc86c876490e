(* Unit and property tests for the warden.util substrate: RNG, deque,
   priority queue, bitset, stats and table rendering. *)

open Warden_util

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --- Splitmix ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Splitmix.make 42L and b = Splitmix.make 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_rng_copy_independent () =
  let a = Splitmix.make 7L in
  ignore (Splitmix.next a);
  let b = Splitmix.copy a in
  Alcotest.(check int64) "copy continues identically" (Splitmix.next a)
    (Splitmix.next b)

let test_rng_split_diverges () =
  let a = Splitmix.make 7L in
  let child = Splitmix.split a in
  Alcotest.(check bool) "split stream differs" true
    (Splitmix.next a <> Splitmix.next child)

let rng_bounds =
  qtest "int64_in respects bound"
    QCheck2.Gen.(pair (int_range 1 1_000_000) int64)
    (fun (bound, seed) ->
      let rng = Splitmix.make seed in
      let v = Splitmix.int64_in rng (Int64.of_int bound) in
      Int64.compare v 0L >= 0 && Int64.compare v (Int64.of_int bound) < 0)

let test_rng_extreme_bound () =
  (* Regression: bound = Int64.max_int used to loop forever. *)
  let rng = Splitmix.make 1L in
  for _ = 1 to 1000 do
    let v = Splitmix.int64_in rng Int64.max_int in
    Alcotest.(check bool) "in range" true (Int64.compare v 0L >= 0)
  done

let test_rng_rough_uniformity () =
  let rng = Splitmix.make 3L in
  let buckets = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let b = Splitmix.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket count %d near %d" c (n / 10))
        true
        (abs (c - (n / 10)) < n / 50))
    buckets

let test_shuffle_permutes () =
  let rng = Splitmix.make 9L in
  let a = Array.init 100 Fun.id in
  Splitmix.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) sorted

(* --- Deque ---------------------------------------------------------------- *)

let test_deque_lifo_owner () =
  let d = Deque.create () in
  List.iter (Deque.push_bottom d) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "pop newest" (Some 3) (Deque.pop_bottom d);
  Alcotest.(check (option int)) "steal oldest" (Some 1) (Deque.steal_top d);
  Alcotest.(check (option int)) "pop remaining" (Some 2) (Deque.pop_bottom d);
  Alcotest.(check (option int)) "empty" None (Deque.pop_bottom d);
  Alcotest.(check (option int)) "empty steal" None (Deque.steal_top d)

let test_deque_grows () =
  let d = Deque.create () in
  for i = 0 to 999 do
    Deque.push_bottom d i
  done;
  Alcotest.(check int) "length" 1000 (Deque.length d);
  Alcotest.(check (list int)) "order" (List.init 1000 Fun.id) (Deque.to_list d)

(* Random interleavings of push/pop/steal against a reference model. *)
let deque_model =
  qtest ~count:200 "deque matches a two-ended list model"
    QCheck2.Gen.(list (int_range 0 2))
    (fun ops ->
      let d = Deque.create () in
      (* model: head = top (oldest), tail = bottom (newest) *)
      let model = ref [] in
      let counter = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              incr counter;
              Deque.push_bottom d !counter;
              model := !model @ [ !counter ];
              true
          | 1 -> (
              match List.rev !model with
              | [] -> Deque.pop_bottom d = None
              | x :: rest ->
                  model := List.rev rest;
                  Deque.pop_bottom d = Some x)
          | _ -> (
              match !model with
              | [] -> Deque.steal_top d = None
              | x :: rest ->
                  model := rest;
                  Deque.steal_top d = Some x))
        ops)

(* --- Pqueue ---------------------------------------------------------------- *)

let test_pqueue_orders () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.add q ~prio:p v) [ (5, "e"); (1, "a"); (3, "c") ];
  Alcotest.(check (option (pair int string))) "min" (Some (1, "a")) (Pqueue.pop q);
  Pqueue.add q ~prio:0 "z";
  Alcotest.(check (option (pair int string))) "new min" (Some (0, "z"))
    (Pqueue.pop q);
  Alcotest.(check (option int)) "peek prio" (Some 3) (Pqueue.min_prio q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.add q ~prio:7 v) [ "first"; "second"; "third" ];
  Alcotest.(check (option (pair int string)))
    "fifo 1" (Some (7, "first")) (Pqueue.pop q);
  Alcotest.(check (option (pair int string)))
    "fifo 2"
    (Some (7, "second"))
    (Pqueue.pop q);
  Alcotest.(check (option (pair int string)))
    "fifo 3" (Some (7, "third")) (Pqueue.pop q)

let test_pqueue_clear_reuse () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.add q ~prio:p p) [ 9; 2; 5 ];
  Pqueue.clear q;
  Alcotest.(check bool) "empty after clear" true (Pqueue.is_empty q);
  Alcotest.(check int) "min_prio_or default" 42 (Pqueue.min_prio_or q ~default:42);
  (* FIFO sequencing restarts cleanly after a clear. *)
  List.iter (fun v -> Pqueue.add q ~prio:1 v) [ 10; 20 ];
  Alcotest.(check int) "min_prio_or" 1 (Pqueue.min_prio_or q ~default:42);
  Alcotest.(check int) "pop_exn fifo 1" 10 (Pqueue.pop_exn q);
  Alcotest.(check int) "pop_exn fifo 2" 20 (Pqueue.pop_exn q);
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Pqueue.pop_exn: empty") (fun () ->
      ignore (Pqueue.pop_exn q))

let pqueue_sorted =
  qtest ~count:200 "pqueue drains in priority order"
    QCheck2.Gen.(list (int_range 0 1000))
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.add q ~prio:p p) prios;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare prios)

(* --- Itab ----------------------------------------------------------------- *)

(* Differential test against a Hashtbl model: a random script of
   find_or_add / find_or / mem calls must agree on every result (and on
   the final size), including across growth/rehash. *)
let itab_model =
  qtest ~count:300 "itab matches hashtbl model"
    QCheck2.Gen.(
      list_size (int_range 1 400) (pair (int_range 0 2) (int_range 0 997)))
    (fun script ->
      let tab = Itab.create ~dummy:(-1) () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (op, key) ->
          match op with
          | 0 ->
              let v = Itab.find_or_add tab key ~make:(fun k -> (k * 7) + 1) in
              let mv =
                match Hashtbl.find_opt model key with
                | Some mv -> mv
                | None ->
                    let mv = (key * 7) + 1 in
                    Hashtbl.add model key mv;
                    mv
              in
              v = mv
          | 1 ->
              Itab.find_or tab key ~default:(-1)
              = Option.value (Hashtbl.find_opt model key) ~default:(-1)
          | _ -> Itab.mem tab key = Hashtbl.mem model key)
        script
      && Itab.length tab = Hashtbl.length model
      && begin
           (* iter yields exactly the model's bindings. *)
           let seen = ref 0 in
           let ok = ref true in
           Itab.iter tab (fun k v ->
               incr seen;
               ok := !ok && Hashtbl.find_opt model k = Some v);
           !ok && !seen = Hashtbl.length model
         end)

(* --- Bitset ---------------------------------------------------------------- *)

let test_bitset_basic () =
  let b = Bitset.create () in
  Bitset.add b 3;
  Bitset.add b 100;
  Bitset.add b 3;
  Alcotest.(check int) "cardinal dedups" 2 (Bitset.cardinal b);
  Alcotest.(check bool) "mem 100" true (Bitset.mem b 100);
  Alcotest.(check bool) "not mem 4" false (Bitset.mem b 4);
  Alcotest.(check (list int)) "elements sorted" [ 3; 100 ] (Bitset.elements b);
  Bitset.remove b 3;
  Alcotest.(check (option int)) "choose smallest" (Some 100) (Bitset.choose b);
  Bitset.remove b 100;
  Alcotest.(check bool) "empty" true (Bitset.is_empty b)

let bitset_model =
  qtest ~count:200 "bitset matches a set model"
    QCheck2.Gen.(list (pair bool (int_range 0 300)))
    (fun ops ->
      let b = Bitset.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add b i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove b i;
            Hashtbl.remove model i
          end)
        ops;
      Bitset.cardinal b = Hashtbl.length model
      && List.for_all (fun i -> Hashtbl.mem model i) (Bitset.elements b))

(* --- Stats ---------------------------------------------------------------- *)

let test_stats_means () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Stats.mean []);
  Alcotest.(check (float 1e-6)) "geomean" 2.0 (Stats.geomean [ 1.; 2.; 4. ]);
  Alcotest.(check (float 1e-9)) "speedup" 2.0 (Stats.speedup ~baseline:10. ~value:5.);
  Alcotest.(check (float 1e-9)) "percent" 50.
    (Stats.percent_change ~baseline:10. ~value:5.)

let test_stats_online () =
  let o = Stats.online () in
  List.iter (Stats.push o) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.count o);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.omean o);
  Alcotest.(check (float 1e-6)) "stddev (sample)" (sqrt (32. /. 7.)) (Stats.stddev o);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.omin o);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.omax o)

(* --- Table ---------------------------------------------------------------- *)

let test_table_renders () =
  let out =
    Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "x"; "y" ]; [ "long"; "z" ] ]
  in
  Alcotest.(check int) "header + rule + 2 rows" 4
    (List.length (String.split_on_char '\n' (String.trim out)));
  Alcotest.check_raises "ragged row rejected"
    (Invalid_argument "Table.render: ragged row") (fun () ->
      ignore (Table.render ~header:[ "a" ] ~rows:[ [ "x"; "y" ] ]))

let test_bar_chart () =
  let out = Table.bar_chart ~title:"t" () [ ("a", 1.0); ("b", 2.0) ] in
  Alcotest.(check bool) "three lines or more" true
    (List.length (String.split_on_char '\n' out) >= 3)

(* --- Cliscan ---------------------------------------------------------------- *)

(* The bench harness's argv scanner. The regression it pins: a value flag
   (e.g. --jobs) followed immediately by another flag used to swallow that
   flag as its value, so
     bench.exe compare --jobs --obs counters
   silently lost --obs AND misread --jobs. A value flag must only consume
   a following non-flag token. *)
let cliscan_test () =
  let module C = Warden_util.Cliscan in
  let value_flags = [ [ "--jobs"; "-j" ]; [ "--obs" ]; [ "--filter" ] ] in
  let scan args = C.create ~value_flags (Array.of_list ("bench.exe" :: args)) in
  (* the regression case *)
  let t = scan [ "compare"; "--jobs"; "--obs"; "counters" ] in
  Alcotest.(check (list string))
    "flag not swallowed as a value" [ "compare" ] (C.positionals t);
  Alcotest.(check bool) "--jobs still seen" true (C.has t "--jobs");
  Alcotest.(check (option string))
    "--obs kept its value" (Some "counters")
    (C.string_flag t [ "--obs" ]);
  Alcotest.check_raises "--jobs without a value is an error"
    (Invalid_argument "--jobs: missing value") (fun () ->
      ignore (C.int_flag t [ "--jobs"; "-j" ]));
  (* ordinary shapes keep working *)
  let t = scan [ "compare"; "a.json"; "b.json"; "--jobs"; "4" ] in
  Alcotest.(check (list string))
    "positionals in order"
    [ "compare"; "a.json"; "b.json" ]
    (C.positionals t);
  Alcotest.(check int) "--jobs value" 4 (Option.get (C.int_flag t [ "--jobs" ]));
  let t = scan [ "json"; "--jobs=8"; "--obs"; "counters" ] in
  Alcotest.(check int) "--jobs=8 form" 8 (Option.get (C.int_flag t [ "--jobs" ]));
  Alcotest.(check (option string))
    "--obs value" (Some "counters")
    (C.string_flag t [ "--obs" ]);
  Alcotest.(check (list string))
    "values never leak into positionals" [ "json" ] (C.positionals t);
  (* presence-only flags are dropped alone *)
  let t = scan [ "quick"; "--overhead"; "x.json" ] in
  Alcotest.(check bool) "presence flag seen" true (C.has t "--overhead");
  Alcotest.(check (list string))
    "presence flag takes no neighbor" [ "quick"; "x.json" ] (C.positionals t)

(* The bench harness's --filter flag: Cliscan must treat it as a
   value flag (so it can never swallow a following flag), and
   Suite.matching must select by substring, preserve suite order, treat
   the empty string as match-all, and find nothing for garbage. *)
let filter_flag_test () =
  let module C = Warden_util.Cliscan in
  let module Suite = Warden_pbbs.Suite in
  let value_flags = [ [ "--jobs"; "-j" ]; [ "--filter" ] ] in
  let t =
    C.create ~value_flags
      [| "bench.exe"; "quick"; "--filter"; "sort"; "--jobs"; "2" |]
  in
  Alcotest.(check (option string))
    "--filter carries its value" (Some "sort")
    (C.string_flag t [ "--filter" ]);
  Alcotest.(check int) "--jobs unaffected" 2 (Option.get (C.int_flag t [ "--jobs" ]));
  Alcotest.(check (list string)) "mode survives" [ "quick" ] (C.positionals t);
  let t = C.create ~value_flags [| "bench.exe"; "--filter"; "--jobs"; "2" |] in
  Alcotest.(check bool) "valueless --filter still seen" true (C.has t "--filter");
  Alcotest.(check (option string))
    "--filter never swallows a flag" None
    (C.string_flag t [ "--filter" ]);
  Alcotest.(check int)
    "the following flag keeps its value" 2
    (Option.get (C.int_flag t [ "--jobs" ]));
  (* Suite.matching semantics *)
  let all_names = List.map (fun (s : Warden_pbbs.Spec.t) -> s.Warden_pbbs.Spec.name) Suite.all in
  Alcotest.(check (list string))
    "empty substring matches everything in suite order" all_names
    (Suite.matching "");
  let contains_sub sub s =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  let sorts = Suite.matching "sort" in
  Alcotest.(check bool) "some benchmark matches \"sort\"" true (sorts <> []);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s contains \"sort\"" n)
        true (contains_sub "sort" n))
    sorts;
  Alcotest.(check (list string))
    "matches keep suite order" sorts
    (List.filter (fun n -> List.mem n sorts) all_names);
  Alcotest.(check (list string))
    "no match for garbage" [] (Suite.matching "no-such-benchmark");
  (* exact name is a substring of itself *)
  Alcotest.(check bool) "exact name matches itself" true
    (List.mem "msort" (Suite.matching "msort"))

let cliscan_bad_value_test () =
  let module C = Warden_util.Cliscan in
  let t =
    C.create
      ~value_flags:[ [ "--jobs" ] ]
      [| "bench.exe"; "--jobs"; "zero" |]
  in
  Alcotest.check_raises "non-integer value is an error"
    (Invalid_argument "--jobs: expected a positive integer") (fun () ->
      ignore (C.int_flag t [ "--jobs" ]))

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng copy" `Quick test_rng_copy_independent;
    Alcotest.test_case "rng split" `Quick test_rng_split_diverges;
    rng_bounds;
    Alcotest.test_case "rng max bound regression" `Quick test_rng_extreme_bound;
    Alcotest.test_case "rng uniformity" `Quick test_rng_rough_uniformity;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "deque lifo/fifo" `Quick test_deque_lifo_owner;
    Alcotest.test_case "deque grows" `Quick test_deque_grows;
    deque_model;
    Alcotest.test_case "pqueue orders" `Quick test_pqueue_orders;
    Alcotest.test_case "pqueue fifo ties" `Quick test_pqueue_fifo_ties;
    Alcotest.test_case "pqueue clear and reuse" `Quick test_pqueue_clear_reuse;
    pqueue_sorted;
    itab_model;
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    bitset_model;
    Alcotest.test_case "stats means" `Quick test_stats_means;
    Alcotest.test_case "stats online" `Quick test_stats_online;
    Alcotest.test_case "table renders" `Quick test_table_renders;
    Alcotest.test_case "bar chart" `Quick test_bar_chart;
    Alcotest.test_case "Cliscan flag-swallowing regression" `Quick cliscan_test;
    Alcotest.test_case "Cliscan rejects bad values" `Quick
      cliscan_bad_value_test;
    Alcotest.test_case "bench --filter scanning and Suite.matching" `Quick
      filter_flag_test;
  ]

let () = Alcotest.run "warden-util" [ ("util", suite) ]
