(* warden.obs: the coherence-event observability layer.

   Three layers of assurance:

   1. Unit tests for the recording primitives (Chrome sink, histogram, heatmap).
   2. Non-perturbation: every observable of the simulation — cycles,
      stats, energy, verification — is bit-identical across
      obs_level ∈ {off, counters, full}, i.e. tracing a run never
      changes the run.
   3. The sinks themselves: counters agree with the protocol statistics
      banks, the Chrome trace is well-formed JSON and byte-identical
      run to run, a MESI run of fib records invalidations, and a
      WARD-heavy kernel records strictly less coherence traffic under
      WARDen than under MESI. *)

open Warden_machine
open Warden_sim
open Warden_proto
open Warden_harness
module Obs = Warden_obs.Obs
module Oev = Warden_obs.Events
module Hist = Warden_obs.Hist
module Heat = Warden_obs.Sink_heatmap
module Chrome = Warden_obs.Sink_chrome

(* ---- 1. primitives ------------------------------------------------------- *)

(* The Chrome sink is the only record store: past its capacity a record
   is counted in [dropped], never kept, and the kept ones are the first
   records added. *)
let test_chrome_capacity () =
  let c = Chrome.create ~capacity:16 () in
  Alcotest.(check int) "empty" 0 (Chrome.length c);
  for i = 0 to 19 do
    Chrome.add c ~code:Oev.miss ~cycle:(100 + i) ~core:(i mod 4) ~blk:(i * 8)
      ~arg:(i * 2) ~seq:i
  done;
  Alcotest.(check int) "capacity kept" 16 (Chrome.length c);
  Alcotest.(check int) "overflow counted as dropped" 4 (Chrome.dropped c);
  let buf = Buffer.create 256 in
  Chrome.write buf ~runs:[ (0, "t", c) ];
  let doc = Buffer.contents buf in
  let has needle =
    let n = String.length needle in
    let rec at i =
      i + n <= String.length doc && (String.sub doc i n = needle || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "last kept record written" true (has {|"ts":115|});
  Alcotest.(check bool) "dropped record not written" false (has {|"ts":116|})

let test_hist () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (Hist.bucket_of v))
    [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3); (1023, 9);
      (1024, 10); (max_int, Hist.nbuckets - 1) ];
  let h = Hist.create ~classes:3 in
  List.iter (fun v -> Hist.add h ~cls:1 v) [ 1; 2; 3; 100 ];
  Alcotest.(check int) "count" 4 (Hist.count h ~cls:1);
  Alcotest.(check int) "sum" 106 (Hist.sum h ~cls:1);
  Alcotest.(check (float 1e-9)) "mean" 26.5 (Hist.mean h ~cls:1);
  Alcotest.(check int) "bucket 1 holds 2,3" 2 (Hist.get h ~cls:1 ~bucket:1);
  Alcotest.(check int) "other class empty" 0 (Hist.count h ~cls:0);
  Hist.set h ~cls:1 ~value:6 ~count:5;
  Alcotest.(check (list int)) "set replaces the class"
    [ 5; 30; 5 ]
    [ Hist.count h ~cls:1; Hist.sum h ~cls:1; Hist.get h ~cls:1 ~bucket:2 ];
  Alcotest.(check int) "set empties other buckets" 0
    (Hist.get h ~cls:1 ~bucket:1);
  Alcotest.(check string) "empty class renders nothing" ""
    (Hist.render h ~cls:2 ~title:"t");
  Alcotest.(check bool) "non-empty class renders" true
    (String.length (Hist.render h ~cls:1 ~title:"t") > 0)

let test_percentile () =
  let h = Hist.create ~classes:3 in
  (* Empty class: 0 by definition. *)
  Alcotest.(check (float 0.)) "empty p50" 0. (Hist.percentile h ~cls:0 50.);
  Alcotest.(check (float 0.)) "empty p99.9" 0. (Hist.percentile h ~cls:0 99.9);
  (* Single bucket: 100 copies of 1 all land in bucket 0 = [0, 2); the
     interpolation sweeps that bucket linearly. *)
  for _ = 1 to 100 do
    Hist.add h ~cls:0 1
  done;
  Alcotest.(check (float 1e-9)) "single-bucket p0 = lower edge" 0.
    (Hist.percentile h ~cls:0 0.);
  Alcotest.(check (float 1e-9)) "single-bucket p50 = midpoint" 1.
    (Hist.percentile h ~cls:0 50.);
  Alcotest.(check (float 1e-9)) "single-bucket p100 = upper edge" 2.
    (Hist.percentile h ~cls:0 100.);
  (* Saturated: max_int lands in the last bucket [2^31, 2^32). *)
  for _ = 1 to 10 do
    Hist.add h ~cls:1 max_int
  done;
  let p50 = Hist.percentile h ~cls:1 50. in
  Alcotest.(check bool) "saturated p50 within last bucket" true
    (p50 >= Float.of_int (1 lsl (Hist.nbuckets - 1))
    && p50 <= Float.of_int 1 *. Float.pow 2. (float_of_int Hist.nbuckets));
  (* Multi-bucket: percentiles are monotone in p and bounded by the
     covering bucket's edges. *)
  List.iter (fun v -> Hist.add h ~cls:2 v) [ 2; 4; 8; 9; 1000 ];
  let prev = ref 0. in
  List.iter
    (fun p ->
      let v = Hist.percentile h ~cls:2 p in
      Alcotest.(check bool)
        (Printf.sprintf "monotone at p%g" p)
        true (v >= !prev);
      prev := v)
    [ 0.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ];
  Alcotest.(check bool) "p100 covers the largest sample" true
    (Hist.percentile h ~cls:2 100. >= 1000.);
  Alcotest.check_raises "p out of range rejected"
    (Invalid_argument "Hist: bad percentile") (fun () ->
      ignore (Hist.percentile h ~cls:0 100.5));
  Alcotest.check_raises "negative p rejected"
    (Invalid_argument "Hist: bad percentile") (fun () ->
      ignore (Hist.percentile h ~cls:0 (-1.)))

let test_heatmap () =
  let t = Heat.create () in
  Alcotest.(check int) "no blocks yet" 0 (Heat.blocks t);
  (* block 7: two misses and an invalidation; block 3: one miss. *)
  Heat.touch_block t ~blk:7 ~cls:0;
  Heat.touch_block t ~blk:7 ~cls:0;
  Heat.touch_block t ~blk:7 ~cls:1;
  Heat.touch_block t ~blk:3 ~cls:0;
  Heat.mark_ward t ~blk:3;
  Alcotest.(check int) "two blocks" 2 (Heat.blocks t);
  Alcotest.(check int) "block 7 misses" 2 (Heat.block_count t ~blk:7 ~cls:0);
  Alcotest.(check int) "block 7 invs" 1 (Heat.block_count t ~blk:7 ~cls:1);
  Alcotest.(check int) "untouched cell" 0 (Heat.block_count t ~blk:3 ~cls:1);
  (match Heat.top_blocks t ~n:2 with
  | [ (b1, c1, w1); (b2, _, w2) ] ->
      Alcotest.(check int) "hottest block first" 7 b1;
      Alcotest.(check int) "hottest total" 3 (Array.fold_left ( + ) 0 c1);
      Alcotest.(check bool) "7 not warded" false w1;
      Alcotest.(check int) "runner-up" 3 b2;
      Alcotest.(check bool) "3 warded" true w2
  | l -> Alcotest.failf "expected 2 rows, got %d" (List.length l));
  Heat.touch_region t ~lo:1024 ~hi:2048 ~exit:false ~flushed:0;
  Heat.touch_region t ~lo:1024 ~hi:2048 ~exit:true ~flushed:5;
  Heat.touch_region t ~lo:64 ~hi:128 ~exit:false ~flushed:0;
  Alcotest.(check (list (pair int int)))
    "regions sorted by lo, enters/exits folded"
    [ (64, 1); (1024, 1) ]
    (List.map (fun (lo, _, enters, _, _) -> (lo, enters)) (Heat.regions t));
  (match Heat.regions t with
  | [ _; (_, hi, _, exits, flushed) ] ->
      Alcotest.(check int) "hi" 2048 hi;
      Alcotest.(check int) "exits" 1 exits;
      Alcotest.(check int) "flushed" 5 flushed
  | _ -> Alcotest.fail "expected 2 regions");
  Alcotest.(check bool) "block table renders" true
    (String.length (Heat.render_blocks t ~n:4) > 0)

(* ---- shared simulation driver -------------------------------------------- *)

let cfg lvl = { (Config.dual_socket ()) with Config.obs_level = lvl }

let run_ms ~bench ~scale ~proto config =
  let spec = Option.get (Warden_pbbs.Suite.find bench) in
  let eng = Engine.create config ~proto in
  let ok = spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL eng in
  Alcotest.(check bool) (bench ^ ": verified") true ok;
  Engine.memsys eng

let kernels = [ ("fib", 12); ("msort", 1_000) ]
let protos = [ (`Mesi, "mesi"); (`Warden, "warden") ]

(* ---- 2. recording never perturbs the simulation --------------------------- *)

let test_non_perturbation () =
  List.iter
    (fun (bench, _scale) ->
      let spec = Option.get (Warden_pbbs.Suite.find bench) in
      List.iter
        (fun (proto, pname) ->
          let run lvl =
            Exp.run_bench ~quick:true ~config:(cfg lvl) ~proto spec
          in
          let base = run Config.Obs_off in
          List.iter
            (fun (lvl, lname) ->
              let label = Printf.sprintf "%s/%s obs=%s" bench pname lname in
              let r = run lvl in
              Alcotest.(check bool) (label ^ ": verified") true r.Exp.verified;
              Alcotest.(check int) (label ^ ": cycles") base.Exp.cycles
                r.Exp.cycles;
              Alcotest.(check (float 0.))
                (label ^ ": energy") base.Exp.energy_total_pj
                r.Exp.energy_total_pj;
              Alcotest.(check bool) (label ^ ": full result") true (base = r))
            [
              (Config.Obs_counters, "counters");
              (Config.Obs_full, "full");
            ])
        protos)
    kernels

(* ---- 3. counters agree with the statistics banks --------------------------- *)

let counter_agreement () =
  List.iter
    (fun (bench, scale) ->
      List.iter
        (fun (proto, pname) ->
          let ms = run_ms ~bench ~scale ~proto (cfg Config.Obs_counters) in
          let obs = Memsys.obs ms in
          let ss = Memsys.sstats ms and ps = Memsys.pstats ms in
          let check name expect code =
            Alcotest.(check int)
              (Printf.sprintf "%s/%s: %s" bench pname name)
              expect (Obs.count obs code)
          in
          (* The stats banks accumulate cache levels per probe; obs counts
             probes and sums their levels, so the sums must agree. *)
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: invalidation levels" bench pname)
            ps.Pstats.invalidations
            (Obs.sum obs Oev.invalidation);
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: downgrade levels" bench pname)
            ps.Pstats.downgrades
            (Obs.sum obs Oev.downgrade);
          check "ward grants" ps.Pstats.ward_grants Oev.ward_grant;
          check "ward enters" ps.Pstats.ward_adds Oev.ward_enter;
          check "ward exits" ps.Pstats.ward_removes Oev.ward_exit;
          check "sb stalls" ss.Sstats.sb_stalls Oev.sb_stall;
          check "l1 hits" ss.Sstats.l1_hits Oev.l1_hit;
          check "l2 hits" ss.Sstats.l2_hits Oev.l2_hit;
          (* Hit histograms are filled in from the counts at the level's
             constant latency; the latency sums recorded hit by hit must
             come out the same. *)
          List.iter
            (fun (name, code) ->
              let h = Obs.hist obs in
              Alcotest.(check (pair int int))
                (Printf.sprintf "%s/%s: %s histogram" bench pname name)
                (Obs.count obs code, Obs.sum obs code)
                (Hist.count h ~cls:code, Hist.sum h ~cls:code))
            [ ("l1 hit", Oev.l1_hit); ("l2 hit", Oev.l2_hit);
              ("miss", Oev.miss); ("upgrade", Oev.upgrade) ];
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: misses+upgrades" bench pname)
            ss.Sstats.priv_misses
            (Obs.count obs Oev.miss + Obs.count obs Oev.upgrade))
        protos)
    kernels

(* ---- 4. Chrome trace ------------------------------------------------------ *)

(* A tiny recursive-descent JSON well-formedness checker: no external
   JSON dependency is available in the image, and "the file loads in
   about://tracing" reduces to "it parses". *)
let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then advance () else fail () in
  let parse_string () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail ()
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          if peek () = None then fail ();
          advance ();
          go ()
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let parse_number () =
    if peek () = Some '-' then advance ();
    let digits = ref 0 in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '.' | 'e' | 'E' | '+' | '-') ->
          incr digits;
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    if !digits = 0 then fail ()
  in
  let parse_lit lit =
    String.iter (fun c -> expect c) lit
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> parse_string ()
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else
          let rec members () =
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail ()
          in
          members ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else
          let rec elements () =
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail ()
          in
          elements ()
    | Some 't' -> parse_lit "true"
    | Some 'f' -> parse_lit "false"
    | Some 'n' -> parse_lit "null"
    | Some _ -> parse_number ()
    | None -> fail ()
  in
  match
    parse_value ();
    skip_ws ();
    !pos = n
  with
  | r -> r
  | exception Exit -> false

let trace_of runs =
  let buf = Buffer.create (1 lsl 12) in
  Chrome.write buf
    ~runs:(List.mapi (fun pid (name, ms) -> (pid, name, Obs.chrome (Memsys.obs ms))) runs);
  Buffer.contents buf

let test_chrome_trace () =
  (* fib under both protocols in one document, like `profile fib`. *)
  let run proto = run_ms ~bench:"fib" ~scale:12 ~proto (cfg Config.Obs_full) in
  let ms_m = run `Mesi and ms_w = run `Warden in
  let doc = trace_of [ ("mesi", ms_m); ("warden", ms_w) ] in
  Alcotest.(check bool) "trace is well-formed JSON" true (json_well_formed doc);
  Alcotest.(check bool) "trace has traceEvents" true
    (String.length doc > 0
    && String.sub doc 0 1 = "{"
    &&
    let needle = {|"traceEvents"|} in
    let rec find i =
      i + String.length needle <= String.length doc
      && (String.sub doc i (String.length needle) = needle || find (i + 1))
    in
    find 0);
  let obs_m = Memsys.obs ms_m in
  Alcotest.(check bool) "mesi fib records >= 1 invalidation" true
    (Obs.count obs_m Oev.invalidation >= 1);
  Alcotest.(check bool) "mesi trace retained records" true
    (Chrome.length (Obs.chrome obs_m) > 0);
  Alcotest.(check int) "no drops at this scale" 0
    (Chrome.dropped (Obs.chrome obs_m));
  (* "measurably fewer events under WARDen" on a WARD-heavy kernel: msort
     moves 356 inv+down under MESI and 222 under WARDen (golden). *)
  let coh ms =
    let ps = Memsys.pstats ms in
    ps.Pstats.invalidations + ps.Pstats.downgrades
  in
  let obs_coh ms =
    let o = Memsys.obs ms in
    Obs.sum o Oev.invalidation + Obs.sum o Oev.downgrade
  in
  let mm = run_ms ~bench:"msort" ~scale:1_000 ~proto:`Mesi (cfg Config.Obs_full) in
  let mw =
    run_ms ~bench:"msort" ~scale:1_000 ~proto:`Warden (cfg Config.Obs_full)
  in
  Alcotest.(check int) "msort mesi: obs matches pstats" (coh mm) (obs_coh mm);
  Alcotest.(check int) "msort warden: obs matches pstats" (coh mw) (obs_coh mw);
  Alcotest.(check bool) "msort: fewer coherence events under WARDen" true
    (obs_coh mw < obs_coh mm)

let test_trace_rerun_identity () =
  let doc () =
    let run proto = run_ms ~bench:"fib" ~scale:12 ~proto (cfg Config.Obs_full) in
    trace_of [ ("mesi", run `Mesi); ("warden", run `Warden) ]
  in
  Alcotest.(check string) "trace bytes identical run to run" (doc ()) (doc ())

(* The heatmap is a full-level sink: at the counters level it stays
   empty, and the summary says so in one line instead of two empty
   tables. *)
let test_summary_renders () =
  let summary level =
    let ms = run_ms ~bench:"fib" ~scale:12 ~proto:`Warden (cfg level) in
    (Memsys.obs ms, Obs.render_summary (Memsys.obs ms))
  in
  let mentions s needle =
    let rec find i =
      i + String.length needle <= String.length s
      && (String.sub s i (String.length needle) = needle || find (i + 1))
    in
    find 0
  in
  let heat_only = "recorded at the full level only" in
  let full_obs, full = summary Config.Obs_full in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("full summary mentions " ^ needle) true
        (mentions full needle))
    [ "inv"; "ward-grant"; "l1-hit"; "Hottest blocks"; "WARD regions" ];
  Alcotest.(check bool) "full level fills the heatmap" true
    (Heat.blocks (Obs.heat full_obs) > 0);
  Alcotest.(check bool) "full summary: no full-level-only line" false
    (mentions full heat_only);
  let counters_obs, counters = summary Config.Obs_counters in
  Alcotest.(check int) "counters level leaves the heatmap empty" 0
    (Heat.blocks (Obs.heat counters_obs));
  Alcotest.(check bool) "counters summary mentions ward-grant" true
    (mentions counters "ward-grant");
  Alcotest.(check bool) "counters summary says where the tables are" true
    (mentions counters heat_only);
  Alcotest.(check bool) "counters summary: no empty block table" false
    (mentions counters "Hottest blocks\n")

(* An off recorder holds no sink storage: every memory system builds one,
   and most record nothing. It was 22 KB when every sink was eager. *)
let test_off_footprint () =
  let words = Obj.reachable_words (Obj.repr (Obs.create (cfg Config.Obs_off))) in
  Alcotest.(check bool)
    (Printf.sprintf "off recorder is %d words, at most 256" words)
    true (words <= 256)

let suite =
  [
    Alcotest.test_case "chrome sink counts drops past capacity" `Quick
      test_chrome_capacity;
    Alcotest.test_case "histogram buckets" `Quick test_hist;
    Alcotest.test_case "histogram percentiles" `Quick test_percentile;
    Alcotest.test_case "heatmap blocks and regions" `Quick test_heatmap;
    Alcotest.test_case "recording never perturbs the run" `Quick
      test_non_perturbation;
    Alcotest.test_case "counters agree with statistics banks" `Quick
      counter_agreement;
    Alcotest.test_case "Chrome trace well-formed and meaningful" `Quick
      test_chrome_trace;
    Alcotest.test_case "trace byte-identical run to run" `Quick
      test_trace_rerun_identity;
    Alcotest.test_case "summary renders" `Quick test_summary_renders;
    Alcotest.test_case "off recorder is a stub" `Quick test_off_footprint;
  ]

let () = Alcotest.run "warden-obs" [ ("obs", suite) ]
