(* warden.serve: the serving-tier subsystem.

   1. Zipf sampler: bounds, determinism, distribution sanity (per-rank
      5-sigma bands against the exact pmf plus an aggregate chi-square
      bound — deterministic seeds, so the bands either hold forever or
      fail immediately).
   2. Traffic generator: seed determinism, stream/batch equivalence
      (request i is a pure function of (seed, i)), mix fractions.
   3. The serving tier end to end: verification under both protocols,
      schedule-independent result equality MESI = WARDen, strictly
      lower invalidation+downgrade traffic under WARDen, and full
      result bit-identity (latency histogram included) run to run and
      between the calling domain and pool worker domains. *)

open Warden_util
open Warden_machine
open Warden_serve
module Hist = Warden_obs.Hist

(* ---- 1. Zipf sampler ------------------------------------------------------ *)

let test_zipf_bounds () =
  List.iter
    (fun theta ->
      let z = Zipf.create ~n:16 ~theta in
      let rng = Splitmix.make 7L in
      let ok = ref true in
      for _ = 1 to 10_000 do
        let k = Zipf.sample z rng in
        if k < 0 || k >= 16 then ok := false
      done;
      Alcotest.(check bool)
        (Printf.sprintf "theta %g in range" theta)
        true !ok)
    [ 0.; 0.5; 0.99; 1.0 (* nudged *); 1.5 ];
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~n:0 ~theta:0.5));
  Alcotest.check_raises "negative theta rejected"
    (Invalid_argument "Zipf.create: theta must be finite and non-negative")
    (fun () -> ignore (Zipf.create ~n:4 ~theta:(-1.)));
  (* n = 1 always draws the only rank. *)
  let z1 = Zipf.create ~n:1 ~theta:0.99 in
  let rng = Splitmix.make 9L in
  for _ = 1 to 100 do
    Alcotest.(check int) "n=1 draws rank 0" 0 (Zipf.sample z1 rng)
  done

let test_zipf_distribution () =
  let check_shape ~theta =
    let n = 64 in
    let draws = 200_000 in
    let z = Zipf.create ~n ~theta in
    let rng = Splitmix.make 0xD15EA5EL in
    let counts = Array.make n 0 in
    for _ = 1 to draws do
      let k = Zipf.sample z rng in
      counts.(k) <- counts.(k) + 1
    done;
    (* Per-rank: observed within 5 sigma of expected wherever the
       expectation is large enough for the normal approximation. *)
    let chi2 = ref 0. and dof = ref 0 in
    for k = 0 to n - 1 do
      let e = float_of_int draws *. Zipf.pmf z k in
      if e >= 20. then begin
        let o = float_of_int counts.(k) in
        let sigma = sqrt e in
        Alcotest.(check bool)
          (Printf.sprintf "theta %g rank %d: %.0f within 5 sigma of %.0f"
             theta k o e)
          true
          (Float.abs (o -. e) <= 5. *. sigma);
        chi2 := !chi2 +. ((o -. e) *. (o -. e) /. e);
        incr dof
      end
    done;
    (* Aggregate chi-square: far beyond any plausible quantile of
       chi2(dof) — catches a systematically wrong formula, not noise. *)
    Alcotest.(check bool)
      (Printf.sprintf "theta %g chi-square %.1f within bound (dof %d)" theta
         !chi2 !dof)
      true
      (!chi2 <= (2. *. float_of_int !dof) +. 30.)
  in
  check_shape ~theta:0.;
  check_shape ~theta:0.99;
  (* Skew orders popularity: rank 0 beats rank 8 beats rank 63. *)
  let z = Zipf.create ~n:64 ~theta:0.99 in
  let rng = Splitmix.make 3L in
  let counts = Array.make 64 0 in
  for _ = 1 to 100_000 do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 hottest" true (counts.(0) > counts.(8));
  Alcotest.(check bool) "rank 8 beats rank 63" true (counts.(8) > counts.(63));
  (* pmf is a probability distribution. *)
  let total = ref 0. in
  for k = 0 to 63 do
    total := !total +. Zipf.pmf z k
  done;
  Alcotest.(check (float 1e-9)) "pmf sums to 1" 1.0 !total

(* ---- 2. traffic generator ------------------------------------------------- *)

let mk_workload ?(seed = 0xFEED5L) () =
  Workload.make ~keys:1024 ~theta:0.99 ~read_frac:0.8 ~scan_frac:0.1 ~seed

let test_zipf_memoized_across_curve () =
  (* A curve sweep builds one workload per core-count point with
     identical key-space parameters; the inverse-CDF table must be
     built once, not once per point. Distinctive parameters so earlier
     tests cannot have primed the memo slot. *)
  let mk ~theta () =
    Workload.make ~keys:4099 ~theta ~read_frac:0.8 ~scan_frac:0.05 ~seed:42L
  in
  let before = Zipf.constructions () in
  for _ = 1 to 8 do ignore (mk ~theta:0.83 () : Workload.t) done;
  Alcotest.(check int) "eight identical curve points build one table" 1
    (Zipf.constructions () - before);
  (* A parameter change must rebuild — the memo never serves stale
     tables — and repeat points at the new parameters share again. *)
  for _ = 1 to 3 do ignore (mk ~theta:0.91 () : Workload.t) done;
  Alcotest.(check int) "parameter change rebuilds exactly once" 2
    (Zipf.constructions () - before);
  (* Memoized samplers still sample identically to a fresh table. *)
  let z_memo = Zipf.create_memo ~n:4099 ~theta:0.91 in
  let z_fresh = Zipf.create ~n:4099 ~theta:0.91 in
  let r1 = Splitmix.make 9L and r2 = Splitmix.make 9L in
  let same = ref true in
  for _ = 1 to 1_000 do
    if Zipf.sample z_memo r1 <> Zipf.sample z_fresh r2 then same := false
  done;
  Alcotest.(check bool) "memoized table samples identically" true !same

let test_generator_determinism () =
  let w1 = mk_workload () and w2 = mk_workload () in
  let same = ref true in
  for i = 0 to 9_999 do
    if Workload.request w1 i <> Workload.request w2 i then same := false
  done;
  Alcotest.(check bool) "same seed, same stream" true !same;
  let w3 = mk_workload ~seed:0xBEEFL () in
  let differs = ref false in
  for i = 0 to 9_999 do
    if Workload.request w1 i <> Workload.request w3 i then differs := true
  done;
  Alcotest.(check bool) "different seed, different stream" true !differs;
  (* Requests decode to in-range keys and valid kinds. *)
  let ok = ref true in
  for i = 0 to 9_999 do
    let r = Workload.request w1 i in
    let k = Workload.key_of r in
    if k < 0 || k >= 1024 then ok := false;
    ignore (Workload.kind_of r)
  done;
  Alcotest.(check bool) "keys in range, kinds decode" true !ok

let test_stream_batch_equivalence () =
  let w = mk_workload () in
  let n = 5_000 in
  let reference = Array.init n (Workload.request w) in
  List.iter
    (fun batch ->
      let out = Array.make n 0 in
      let buf = Array.make batch 0 in
      let lo = ref 0 in
      while !lo < n do
        let m = min batch (n - !lo) in
        Workload.fill w buf ~lo:!lo ~n:m;
        Array.blit buf 0 out !lo m;
        lo := !lo + m
      done;
      Alcotest.(check bool)
        (Printf.sprintf "batch %d replays the stream" batch)
        true (out = reference))
    [ 1; 7; 64; 4_096; 5_000 ]

let test_mix_fractions () =
  let w = mk_workload () in
  let n = 50_000 in
  let reads, writes, scans = Workload.kind_counts w ~n in
  Alcotest.(check int) "counts partition the stream" n (reads + writes + scans);
  let near what frac count =
    let e = frac *. float_of_int n in
    Alcotest.(check bool)
      (Printf.sprintf "%s near %.0f (got %d)" what e count)
      true
      (Float.abs (float_of_int count -. e) <= 5. *. sqrt (e +. 1.))
  in
  near "reads" 0.8 reads;
  near "scans" 0.1 scans;
  near "writes" 0.1 writes;
  (* The write set the verifier recomputes matches a direct scan. *)
  let ws = Workload.write_set w ~n in
  let direct = ref 0 in
  for k = 0 to Workload.keys w - 1 do
    if Warden_util.Bitset.mem ws k then incr direct
  done;
  Alcotest.(check int) "write-set cardinality" (Warden_util.Bitset.cardinal ws)
    !direct

(* ---- 3. the serving tier end to end --------------------------------------- *)

let small =
  {
    Serve.default with
    Serve.requests = 4_000;
    keys = 2_048;
    batch = 512;
    grain = 32;
    shards = 4;
    scan_len = 8;
  }

let run_small proto =
  Serve.run_proto ~params:small ~machine:(Config.single_socket ()) ~proto ()

let test_serve_verified_and_traffic () =
  let rm = run_small `Mesi and rw = run_small `Warden in
  Alcotest.(check bool) "mesi verified" true rm.Serve.verified;
  Alcotest.(check bool) "warden verified" true rw.Serve.verified;
  Alcotest.(check int) "mesi: no read violations" 0 rm.Serve.violations;
  Alcotest.(check int) "warden: no read violations" 0 rw.Serve.violations;
  Alcotest.(check bool) "schedule-independent results equal" true
    (Serve.equal_results rm rw);
  Alcotest.(check int) "latency histogram counts every request"
    small.Serve.requests
    (Hist.count rm.Serve.lat ~cls:Serve.cls_all);
  (* The tentpole claim: the serving mix moves strictly less
     invalidation+downgrade traffic under WARDen at equal results. *)
  let coh r = r.Serve.invalidations + r.Serve.downgrades in
  Alcotest.(check bool)
    (Printf.sprintf "warden coh %d < mesi coh %d" (coh rw) (coh rm))
    true
    (coh rw < coh rm);
  (* Percentiles are ordered and positive. *)
  let p q = Hist.percentile rw.Serve.lat ~cls:Serve.cls_all q in
  Alcotest.(check bool) "p50 > 0" true (p 50. > 0.);
  Alcotest.(check bool) "p50 <= p95" true (p 50. <= p 95.);
  Alcotest.(check bool) "p95 <= p99" true (p 95. <= p 99.);
  Alcotest.(check bool) "p99 <= p99.9" true (p 99. <= p 99.9)

(* Runs fanned across host domains by the job pool match a run on the
   calling domain. The case name predates the removal of the speculative
   engine, whose domain and speculation settings it used to sweep. *)
let test_serve_domain_identity () =
  List.iter
    (fun proto ->
      let base = run_small proto in
      List.iteri
        (fun i r ->
          Alcotest.(check bool)
            (Printf.sprintf "copy %d on jobs=2: full result (hist included) \
                             identical" i)
            true (base = r))
        (Warden_harness.Pool.map ~jobs:2 run_small [ proto; proto ]))
    [ `Mesi; `Warden ]

let test_serve_json_deterministic () =
  let r1 = run_small `Warden and r2 = run_small `Warden in
  Alcotest.(check bool) "full result (hist included) identical" true (r1 = r2);
  let j1 = Serve.json_summary small r1 in
  let j2 = Serve.json_summary small r2 in
  Alcotest.(check string) "json bytes identical run to run" j1 j2;
  Alcotest.(check bool) "json mentions p99.9" true
    (let needle = "lat_p999" in
     let rec find i =
       i + String.length needle <= String.length j1
       && (String.sub j1 i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let suite =
  [
    Alcotest.test_case "zipf bounds and edge cases" `Quick test_zipf_bounds;
    Alcotest.test_case "zipf distribution sanity" `Quick test_zipf_distribution;
    Alcotest.test_case "zipf table memoized across curve points" `Quick
      test_zipf_memoized_across_curve;
    Alcotest.test_case "generator seed determinism" `Quick
      test_generator_determinism;
    Alcotest.test_case "stream/batch equivalence" `Quick
      test_stream_batch_equivalence;
    Alcotest.test_case "mix fractions and write set" `Quick test_mix_fractions;
    Alcotest.test_case "serve: verified, equal results, less traffic" `Quick
      test_serve_verified_and_traffic;
    Alcotest.test_case "serve: bit-identical across domains and spec" `Quick
      test_serve_domain_identity;
    Alcotest.test_case "serve: deterministic json summary" `Quick
      test_serve_json_deterministic;
  ]

let () = Alcotest.run "warden-serve" [ ("serve", suite) ]
