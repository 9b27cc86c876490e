(* The reproduction harness: regenerates every table and figure of the
   paper's evaluation (§7), runs the ablations called out in DESIGN.md,
   and times representative simulator kernels with Bechamel.

   Run with:  dune exec bench/main.exe            (full paper scales)
              dune exec bench/main.exe -- quick   (reduced scales)
              dune exec bench/main.exe -- json    (machine-readable timing
                                                   into BENCH_sim.json)
              dune exec bench/main.exe -- scale   (64->512-core hierarchical-
                                                   directory study into
                                                   BENCH_scale.json)
              dune exec bench/main.exe -- serve   (serving-tier MESI-vs-WARDen
                                                   gate into BENCH_serve.json)
              dune exec bench/main.exe -- replay  (trace-driven replay vs the
                                                   program model, into
                                                   BENCH_replay.json)
              dune exec bench/main.exe -- zoo     (fig7/8 kernels under every
                                                   protocol in the zoo, into
                                                   BENCH_zoo.json, with the
                                                   WARDen traffic gate)
   [--jobs N] (or WARDEN_JOBS) caps the domains used for independent
   simulations; the default is the machine's recommended domain count.
   [--filter SUBSTR] restricts the benchmark suites to matching kernels.
   [--snap-cache DIR] makes the scale mode snapshot each cell's post-run
   state into DIR and restore it on later sweeps (DESIGN.md §15). *)

open Warden_machine
open Warden_harness
open Warden_runtime

module Cliscan = Warden_util.Cliscan

(* All modes share one scanner, so a flag's value can never leak into the
   positionals (the old hand-rolled walker swallowed a following flag as a
   value — "compare --jobs --obs off" treated "off" as a snapshot
   path). Mode words are positionals; the rest are flags. *)
let cli =
  Cliscan.create
    ~value_flags:
      [
        [ "--jobs"; "-j" ];
        [ "--obs" ];
        [ "--filter" ];
        [ "--snap-cache" ];
      ]
    Sys.argv

let mode_words =
  [ "quick"; "json"; "compare"; "scale"; "serve"; "replay"; "zoo" ]
let has_mode w = List.mem w (Cliscan.positionals cli)
let quick = has_mode "quick"
let json_mode = has_mode "json"
let compare_mode = has_mode "compare"
let scale_mode = has_mode "scale"
let serve_mode = has_mode "serve"
let replay_mode = has_mode "replay"
let zoo_mode = has_mode "zoo"

(* [--snap-cache DIR]: the scale mode saves each cell's post-run engine
   state into DIR and restores it on later sweeps instead of re-simulating
   (DESIGN.md §15). *)
let snap_cache_dir = Cliscan.string_flag cli [ "--snap-cache" ]

(* Positionals that are not mode words: the compare mode's snapshot paths. *)
let snapshot_args =
  List.filter (fun a -> not (List.mem a mode_words)) (Cliscan.positionals cli)

(* [--obs LEVEL] (or WARDEN_OBS) turns event recording on for every
   simulation in the run; the CI overhead gate benches off vs counters. *)
let obs_level =
  (match Cliscan.string_flag cli [ "--obs" ] with
  | Some s -> (
      match Config.obs_level_of_string s with
      | Some l -> Config.set_default_obs_level l
      | None -> invalid_arg "--obs: expected off, counters or full")
  | None ->
      if Cliscan.has cli "--obs" then
        invalid_arg "--obs: expected off, counters or full");
  Config.obs_level_to_string (Config.dual_socket ()).Config.obs_level

(* [--filter SUBSTR] restricts the benchmark suites (paper experiments
   and the quick-suite throughput measurement) to matching kernels, so
   one benchmark can be studied without editing the suite. *)
let filter_names =
  match Cliscan.string_flag cli [ "--filter" ] with
  | Some sub -> (
      match Warden_pbbs.Suite.matching sub with
      | [] -> invalid_arg (Printf.sprintf "--filter: %S matches no benchmark" sub)
      | names -> Some names)
  | None ->
      if Cliscan.has cli "--filter" then
        invalid_arg "--filter: expected a substring"
      else None

let jobs =
  match Cliscan.int_flag cli [ "--jobs"; "-j" ] with
  | Some n -> n
  | None -> Pool.default_jobs ()

let section title =
  Printf.printf "\n%s\n%s\n\n%!" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures                              *)
(* ------------------------------------------------------------------ *)

let run_paper_experiments () =
  section "Part 1: paper experiments (Tables 1-2, Figures 7-12)";
  let ok = Experiments.run_all ~quick ?names:filter_names ~jobs () in
  Printf.printf "every benchmark verified: %b\n%!" ok;
  ok

(* ------------------------------------------------------------------ *)
(* Part 2: ablations of DESIGN.md                                      *)
(* ------------------------------------------------------------------ *)

let ablation_benches = [ "msort"; "palindrome"; "quickhull"; "fib" ]

let speedup_with ?params ?config name =
  let spec = Option.get (Warden_pbbs.Suite.find name) in
  let config = Option.value config ~default:(Config.dual_socket ()) in
  let pair = Exp.run_pair ~quick:true ?params ~jobs:1 ~config spec in
  Exp.speedup pair

(* variants: (label, params option, config option); every (bench, variant)
   cell is an independent pair of simulations, fanned across the pool. *)
let ablation_table title variants =
  let header = "Benchmark" :: List.map (fun (l, _, _) -> l) variants in
  let cells =
    Pool.map ~jobs
      (fun (bench, (_, params, config)) ->
        Printf.sprintf "%.2f" (speedup_with ?params ?config bench))
      (List.concat_map
         (fun bench -> List.map (fun v -> (bench, v)) variants)
         ablation_benches)
  in
  let nv = List.length variants in
  let rows =
    List.mapi
      (fun i bench ->
        bench :: List.filteri (fun j _ -> j / nv = i) cells)
      ablation_benches
  in
  print_string (title ^ "\n" ^ Warden_util.Table.render ~header ~rows ^ "\n");
  print_newline ()

let run_ablations () =
  section "Part 2: ablations (WARDen speedup over MESI, quick scales)";

  ablation_table "A1. Marking policy (the runtime side of the co-design)"
    [
      ("leaf-marking (paper)", None, None);
      ( "no marking",
        Some { Rtparams.default with Rtparams.mark_leaf_pages = false },
        None );
      ( "handoff outside heap",
        Some { Rtparams.default with Rtparams.handoff_in_heap = false },
        None );
    ];

  ablation_table "A2. Reconciliation of sole-holder blocks (5.2 vs 6.1 reading)"
    [
      ("flush+retain-S (default)", None, None);
      ( "in-place E/M (5.2 literal)",
        None,
        Some { (Config.dual_socket ()) with Config.recon_inplace_sole = true } );
    ];

  ablation_table "A3. WARD region CAM capacity (paper: 1024 regions)"
    [
      ("1024 (paper)", None, None);
      ( "64",
        None,
        Some { (Config.dual_socket ()) with Config.ward_region_capacity = 64 } );
      ( "8",
        None,
        Some { (Config.dual_socket ()) with Config.ward_region_capacity = 8 } );
      ( "0",
        None,
        Some { (Config.dual_socket ()) with Config.ward_region_capacity = 0 } );
    ];

  ablation_table "A4. Reconciliation cost per flushed block (cycles)"
    [
      ("6 (default)", None, None);
      ( "50",
        None,
        Some { (Config.dual_socket ()) with Config.reconcile_per_block = 50 } );
      ( "200",
        None,
        Some { (Config.dual_socket ()) with Config.reconcile_per_block = 200 } );
    ];

  (* A5: sector granularity. Byte sectoring (the paper's choice, §6.1)
     tracks writes exactly; coarser sectors over-approximate the written
     range, so reconciling two cores' copies that falsely share a word
     lets the later merge clobber the earlier core's byte with a stale
     neighbor. The kernel: two hardware threads write adjacent bytes of
     one WARD block, then the region is reconciled. *)
  Printf.printf "A5. Sector granularity (byte = paper, 8-byte = ablation)\n";
  let sub_word_false_sharing sector =
    Warden_cache.Linedata.set_sector_bytes sector;
    Fun.protect
      ~finally:(fun () -> Warden_cache.Linedata.set_sector_bytes 1)
      (fun () ->
        let eng =
          Warden_sim.Engine.create (Config.dual_socket ()) ~proto:`Warden
        in
        let ms = Warden_sim.Engine.memsys eng in
        let a = Warden_sim.Memsys.alloc ms ~bytes:64 ~align:64 in
        let open Warden_sim.Engine.Ops in
        let writer off v () =
          if off = 0 then ignore (region_add ~lo:a ~hi:(a + 64));
          stall 50;
          store (a + off) ~size:1 v;
          stall 200;
          if off = 0 then region_remove ~lo:a ~hi:(a + 64)
        in
        ignore
          (Warden_sim.Engine.run eng [| writer 0 0xAAL; writer 1 0xBBL |]);
        Warden_sim.Memsys.flush_all ms;
        Warden_sim.Memsys.peek ms a ~size:1 = 0xAAL
        && Warden_sim.Memsys.peek ms (a + 1) ~size:1 = 0xBBL)
  in
  print_string
    (Warden_util.Table.render
       ~header:[ "Kernel"; "byte sectors"; "8-byte sectors" ]
       ~rows:
         [
           [
             "adjacent-byte WAW in one WARD block";
             (if sub_word_false_sharing 1 then "both bytes survive"
              else "CORRUPTED");
             (if sub_word_false_sharing 8 then "both bytes survive"
              else "CORRUPTED");
           ];
         ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2b: scaling studies (the 7.3 forward-looking claims)           *)
(* ------------------------------------------------------------------ *)

let run_scaling_studies () =
  section "Part 2b: scaling studies (7.3)";
  let names = [ "dmm"; "msort"; "palindrome"; "quickhull" ] in
  print_string (Experiments.render_worker_scaling ~quick:true ~jobs ~names ());
  print_newline ();
  print_string (Experiments.render_socket_scaling ~quick:true ~jobs ~names ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 3: Bechamel timing of the simulator itself                     *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let bench_pair name scale config =
    Staged.stage (fun () ->
        let spec = Option.get (Warden_pbbs.Suite.find name) in
        List.iter
          (fun proto ->
            let eng = Warden_sim.Engine.create config ~proto in
            ignore (spec.Warden_pbbs.Spec.run ~scale ~seed:1L eng))
          [ `Mesi; `Warden ])
  in
  let table1 = Staged.stage (fun () -> ignore (Microbench.table1 ~iters:200 ())) in
  Test.make_grouped ~name:"warden-sim"
    [
      (* One timed kernel per reproduced experiment. *)
      Test.make ~name:"table1:pingpong-validation" table1;
      Test.make ~name:"fig7:single-socket(fib)"
        (bench_pair "fib" 16 (Config.single_socket ()));
      Test.make ~name:"fig8:dual-socket(msort)"
        (bench_pair "msort" 3_000 (Config.dual_socket ()));
      Test.make ~name:"fig9-11:analysis(palindrome)"
        (bench_pair "palindrome" 3_000 (Config.dual_socket ()));
      Test.make ~name:"fig12:disaggregated(dmm)"
        (bench_pair "dmm" 32 (Config.disaggregated ()));
    ]

(* Returns (kernel, ms/run) estimates so the json mode can persist them. *)
let measure_bechamel () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:None ~stabilize:false
      ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let names = ref [] in
  Hashtbl.iter (fun name _ -> names := name :: !names) results;
  List.filter_map
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some (est :: _) -> Some (name, est /. 1e6)
      | _ -> None)
    (List.sort compare !names)

let run_bechamel () =
  section "Part 3: Bechamel timing of the simulator kernels (host time)";
  List.iter
    (fun (name, ms) -> Printf.printf "%-45s %12.2f ms/run\n" name ms)
    (measure_bechamel ())

(* ------------------------------------------------------------------ *)
(* json mode: machine-readable simulator-performance snapshot          *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Simulator throughput: wall-clock the quick dual-socket suite and count
   the simulated instructions it retires. One simulation at a time, like
   BENCH_baseline.json, so [compare] weighs per-simulation host time
   against per-simulation host time whatever the host's core count. *)
let measure_sim_throughput () =
  let t0 = Unix.gettimeofday () in
  let sr =
    Experiments.run_suite ~quick:true ?names:filter_names ~jobs:1
      ~config:(Config.dual_socket ()) ()
  in
  let wall = Unix.gettimeofday () -. t0 in
  let instrs =
    List.fold_left
      (fun acc (_, p) ->
        acc + p.Exp.mesi.Exp.instructions + p.Exp.warden.Exp.instructions)
      0 sr
  in
  let cycles =
    List.fold_left
      (fun acc (_, p) -> acc + p.Exp.mesi.Exp.cycles + p.Exp.warden.Exp.cycles)
      0 sr
  in
  (wall, instrs, cycles)

(* One line per bench-json run, appended forever: the repo's performance
   trajectory. Kept separate from BENCH_sim.json (a snapshot that each run
   overwrites) so regressions are visible across history, not just against
   the committed baseline. *)
let append_history ~wall ~instrs ~cycles ~mips =
  let line =
    Printf.sprintf
      "{\"unix_time\": %.0f, \"jobs\": 1, \
       \"obs_level\": \"%s\", \"quick_suite_wall_s\": %.3f, \
       \"quick_suite_sim_instructions\": %d, \"quick_suite_sim_cycles\": %d, \
       \"sim_mips\": %.3f}\n"
      (Unix.time ()) obs_level wall instrs cycles mips
  in
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_history.jsonl"
  in
  output_string oc line;
  close_out oc

(* The flat snapshot format shared by json mode (BENCH_sim.json) and the
   scale mode (BENCH_scale.json). *)
let render_snapshot ~kernels ~wall ~instrs ~cycles =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"jobs\": 1,\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"obs_level\": \"%s\",\n" obs_level);
  Buffer.add_string buf "  \"kernels_ms_per_run\": {\n";
  List.iteri
    (fun i (name, ms) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %.3f%s\n" (json_escape name) ms
           (if i = List.length kernels - 1 then "" else ",")))
    kernels;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"quick_suite_wall_s\": %.3f,\n" wall);
  Buffer.add_string buf
    (Printf.sprintf "  \"quick_suite_sim_instructions\": %d,\n" instrs);
  Buffer.add_string buf
    (Printf.sprintf "  \"quick_suite_sim_cycles\": %d,\n" cycles);
  Buffer.add_string buf
    (Printf.sprintf "  \"sim_mips\": %.3f\n"
       (if wall > 0. then float_of_int instrs /. wall /. 1e6 else 0.));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let run_json () =
  let kernels = measure_bechamel () in
  let wall, instrs, cycles = measure_sim_throughput () in
  let s = render_snapshot ~kernels ~wall ~instrs ~cycles in
  let oc = open_out "BENCH_sim.json" in
  output_string oc s;
  close_out oc;
  append_history ~wall ~instrs ~cycles
    ~mips:(if wall > 0. then float_of_int instrs /. wall /. 1e6 else 0.);
  print_string s;
  Printf.printf "wrote BENCH_sim.json (and appended BENCH_history.jsonl)\n%!"

(* ------------------------------------------------------------------ *)
(* compare mode: regression gate against the committed baseline        *)
(* ------------------------------------------------------------------ *)

(* Minimal JSON number extraction — enough for the flat snapshots this
   harness writes itself, keeping the gate dependency-free. *)

(* Every character a JSON number can contain, scientific notation
   included (Printf's %g writes "1.5e+06" and some writers upcase the
   exponent marker). *)
let json_num_char = function
  | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
  | _ -> false

(* Read a snapshot whole; a missing file ends the gate immediately — with
   nothing to scan there is nothing to accumulate. *)
let slurp file =
  let ic =
    try open_in file
    with Sys_error m -> Printf.eprintf "bench compare: %s\n" m; exit 2
  in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The number after ["key":] in [s], when present and numeric. Returning
   an option instead of exiting lets the gates accumulate every missing
   key and report them all before going non-zero. *)
let scan_number s key =
  let needle = "\"" ^ key ^ "\"" in
  let nl = String.length needle and sl = String.length s in
  let rec find i =
    if i + nl > sl then None
    else if String.sub s i nl = needle then Some (i + nl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let i = ref i in
      while !i < sl && (s.[!i] = ':' || s.[!i] = ' ') do incr i done;
      let j = ref !i in
      while !j < sl && json_num_char s.[!j] do incr j done;
      float_of_string_opt (String.sub s !i (!j - !i))

let json_number file key =
  match scan_number (slurp file) key with
  | Some f -> f
  | None ->
      Printf.eprintf "bench compare: no numeric \"%s\" in %s\n" key file;
      exit 2

(* The ("kernel", ms) pairs of a snapshot's kernels_ms_per_run object.
   Same minimal-scanner spirit as {!json_number}: the harness wrote the
   file itself, names never contain quotes. *)
let json_kernels file =
  let s = slurp file in
  let needle = "\"kernels_ms_per_run\"" in
  let nl = String.length needle and sl = String.length s in
  let rec find i =
    if i + nl > sl then
      (Printf.eprintf "bench compare: no %s in %s\n" needle file; exit 2)
    else if String.sub s i nl = needle then i + nl
    else find (i + 1)
  in
  let i = ref (find 0) in
  while !i < sl && s.[!i] <> '{' do incr i done;
  incr i;
  let pairs = ref [] in
  let stop = ref false in
  while not !stop do
    while !i < sl && (match s.[!i] with ' ' | '\n' | ',' -> true | _ -> false) do
      incr i
    done;
    if !i >= sl || s.[!i] = '}' then stop := true
    else begin
      if s.[!i] <> '"' then begin
        Printf.eprintf
          "bench compare: malformed kernels_ms_per_run in %s (expected a \
           quoted key at byte %d)\n"
          file !i;
        exit 2
      end;
      incr i;
      let k0 = !i in
      while !i < sl && s.[!i] <> '"' do incr i done;
      let key = String.sub s k0 (!i - k0) in
      incr i;
      while !i < sl && (s.[!i] = ':' || s.[!i] = ' ') do incr i done;
      let v0 = !i in
      while !i < sl && json_num_char s.[!i] do incr i done;
      match float_of_string_opt (String.sub s v0 (!i - v0)) with
      | Some v -> pairs := (key, v) :: !pairs
      | None ->
          Printf.eprintf
            "bench compare: value of kernel %S in %s is not a number (got %S)\n"
            key file
            (String.sub s v0 (min 20 (sl - v0)));
          exit 2
    end
  done;
  List.rev !pairs

(* Best-effort string field of a flat snapshot ("obs_level": "counters");
   [default] when absent or oddly shaped. *)
let json_string_or file key ~default =
  match
    let ic = open_in file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error _ -> default
  | s -> (
      let needle = "\"" ^ key ^ "\"" in
      let nl = String.length needle and sl = String.length s in
      let rec find i =
        if i + nl > sl then None
        else if String.sub s i nl = needle then Some (i + nl)
        else find (i + 1)
      in
      match find 0 with
      | None -> default
      | Some i -> (
          let i = ref i in
          while !i < sl && s.[!i] <> '"' && s.[!i] <> '\n' do incr i done;
          if !i >= sl || s.[!i] <> '"' then default
          else begin
            incr i;
            let v0 = !i in
            while !i < sl && s.[!i] <> '"' do incr i done;
            if !i >= sl then default else String.sub s v0 (!i - v0)
          end))

(* [compare --overhead [OFF [ON]]]: the tracing-overhead gate. Both files
   are bench-json snapshots of the same machine, one taken
   with WARDEN_OBS=off and one with counters; fail (exit 1) when counters
   cost more than 3%% of simulation throughput. Defaults:
   BENCH_obs_off.json vs BENCH_sim.json. *)
let run_overhead () =
  let off_file, on_file =
    match snapshot_args with
    | [] -> ("BENCH_obs_off.json", "BENCH_sim.json")
    | [ o ] -> (o, "BENCH_sim.json")
    | o :: c :: _ -> (o, c)
  in
  let off = json_number off_file "sim_mips" in
  let on_ = json_number on_file "sim_mips" in
  let off_lvl = json_string_or off_file "obs_level" ~default:"off" in
  let on_lvl = json_string_or on_file "obs_level" ~default:"?" in
  let overhead = if off > 0. then 100. *. (off -. on_) /. off else 0. in
  Printf.printf
    "bench overhead: %.3f sim MIPS at obs=%s (%s) vs %.3f at obs=%s (%s): \
     %+.2f%% (budget 3%%)\n"
    off off_lvl off_file on_ on_lvl on_file overhead;
  if off_lvl = on_lvl then
    Printf.printf
      "warning: both snapshots report obs_level=%s — this is not measuring \
       tracing overhead\n"
      off_lvl;
  if overhead > 3.0 then begin
    Printf.printf "REGRESSION: obs=%s costs %.2f%% sim throughput (budget 3%%)\n"
      on_lvl overhead;
    exit 1
  end
  else Printf.printf "ok: observability overhead within the 3%% budget\n"

(* [compare [BASELINE [CURRENT]]]: fail (exit 1) when the current
   sim_mips drops more than 10%% below the committed baseline, or when any
   kernel's host ms/run regresses more than 15%% over its baseline. *)
let run_compare () =
  let base_file, cur_file =
    match snapshot_args with
    | [] -> ("BENCH_baseline.json", "BENCH_sim.json")
    | [ b ] -> (b, "BENCH_sim.json")
    | b :: c :: _ -> (b, c)
  in
  let base = json_number base_file "sim_mips" in
  let cur = json_number cur_file "sim_mips" in
  let floor = 0.9 *. base in
  Printf.printf
    "bench compare: baseline %.3f sim MIPS (%s), current %.3f (%s), floor %.3f\n"
    base base_file cur cur_file floor;
  let failed = ref false in
  if cur < floor then begin
    Printf.printf "REGRESSION: current sim_mips is %.1f%% of baseline\n"
      (100. *. cur /. base);
    failed := true
  end;
  (* Per-kernel gate: aggregate throughput can hide one kernel regressing
     behind another improving. *)
  let base_kernels = json_kernels base_file in
  let cur_kernels = json_kernels cur_file in
  List.iter
    (fun (name, bms) ->
      match List.assoc_opt name cur_kernels with
      | None ->
          Printf.printf "warning: kernel %s in %s but not in %s\n" name
            base_file cur_file
      | Some cms ->
          let budget = 1.15 *. bms in
          if cms > budget then begin
            Printf.printf
              "REGRESSION: kernel %s: %.3f ms/run vs baseline %.3f (budget \
               %.3f, +%.1f%%)\n"
              name cms bms budget
              (100. *. (cms -. bms) /. bms);
            failed := true
          end
          else
            Printf.printf "ok: kernel %-45s %8.3f ms/run (baseline %8.3f)\n"
              name cms bms)
    base_kernels;
  if !failed then exit 1
  else Printf.printf "ok: within the 10%% MIPS / 15%% per-kernel budgets\n"

(* ------------------------------------------------------------------ *)
(* scale mode: 64 -> 512 cores on the hierarchical directory          *)
(* ------------------------------------------------------------------ *)

(* The socket-scaling study past the paper's testbeds (DESIGN.md §14):
   quick kernels on [Config.numa_mesh] machines from 64 to 512 cores
   under both protocols, sequentially (no pool fan-out — the wall clocks
   are the measurement). Each cell is timed end to end, engine creation
   included, because the lazily-chunked LLC slices are half the point.
   BENCH_scale.json uses the flat snapshot format, so the ordinary
   [compare] gate budgets its cells like any other kernel. The run fails
   unless WARDen's invalidation+downgrade traffic grows strictly slower
   than MESI's from the smallest machine to the largest: the traffic
   *added* by going from 64 to 512 cores must be smaller under WARDen.
   (A relative-factor gate would be vacuous the other way: WARDen's
   absolute traffic is 2-3x lower throughout, so any common growth term
   looms larger against its smaller base.) *)

let scale_sockets = [ 4; 8; 16; 32 ]
let scale_kernels = [ "msort"; "quickhull"; "fib" ]

type scale_cell = {
  sc_wall : float;
  sc_instrs : int;
  sc_inv : int;
  sc_down : int;
  sc_chunks_alloc : int;
  sc_chunks_total : int;
  sc_verified : bool;
}

let scale_proto_str = function
  | `Mesi -> "mesi"
  | `Warden -> "warden"
  | `Msi_bus -> "msi-bus"
  | `Sisd -> "sisd"

(* The snapshot sidecar: the two per-cell facts the engine state cannot
   carry — the verification verdict and the cold run's wall clock. The
   wall is printed with %.17g so it round-trips exactly and a warm
   sweep's BENCH_scale.json stays byte-identical to the cold one. *)
let write_scale_meta path ~verified ~wall =
  let oc = open_out path in
  Printf.fprintf oc "verified %d\nwall %.17g\n" (if verified then 1 else 0)
    wall;
  close_out oc

let read_scale_meta path =
  try
    let ic = open_in path in
    let l1 = input_line ic in
    let l2 = input_line ic in
    close_in ic;
    Scanf.sscanf l1 "verified %d" (fun v ->
        Scanf.sscanf l2 "wall %g" (fun w -> Some (v = 1, w)))
  with _ -> None

(* One (kernel, machine, protocol) cell. With [--snap-cache DIR], the
   first (cold) sweep snapshots the post-run engine state into DIR; later
   sweeps restore it instead of re-simulating. Every statistic the cell
   reports lives in the restored state (plus the sidecar above), so a
   warm sweep reproduces the cold sweep's numbers byte for byte while
   skipping the simulation itself. A missing, stale or mismatched
   snapshot — the fingerprint checks protocol, geometry and every
   result-affecting parameter — falls back to a live run and re-saves.
   Returns the accumulated statistics and how many of the cells were
   served warm. *)
let run_scale_spec ~config ~sockets ~proto spec =
  let live () =
    let t0 = Unix.gettimeofday () in
    let eng = Warden_sim.Engine.create config ~proto in
    let verified =
      spec.Warden_pbbs.Spec.run
        ~scale:(Exp.scale_of ~quick:true spec)
        ~seed:0x5EEDF00DL eng
    in
    (eng, verified, Unix.gettimeofday () -. t0)
  in
  match snap_cache_dir with
  | None ->
      let eng, verified, wall = live () in
      (eng, verified, wall, false)
  | Some dir ->
      let path =
        Filename.concat dir
          (Printf.sprintf "scale_%s_%ds_%s.wsnap" spec.Warden_pbbs.Spec.name
             sockets (scale_proto_str proto))
      in
      let meta = path ^ ".meta" in
      let restored =
        if not (Sys.file_exists path && Sys.file_exists meta) then None
        else
          match read_scale_meta meta with
          | None -> None
          | Some (verified, wall) -> (
              let eng = Warden_sim.Engine.create config ~proto in
              match Warden_snap.Snap.load_file eng path with
              | () -> Some (eng, verified, wall)
              | exception Warden_util.Bin.Corrupt msg ->
                  Printf.printf "scale: stale snapshot %s (%s); re-running\n%!"
                    path msg;
                  None)
      in
      (match restored with
      | Some (eng, verified, wall) -> (eng, verified, wall, true)
      | None ->
          let eng, verified, wall = live () in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Warden_snap.Snap.save_file eng path;
          write_scale_meta meta ~verified ~wall;
          (eng, verified, wall, false))

let run_scale_cell ~sockets ~proto specs =
  let config = Config.numa_mesh ~sockets () in
  List.fold_left
    (fun (acc, warm_n) spec ->
      let eng, verified, wall, warm =
        run_scale_spec ~config ~sockets ~proto spec
      in
      let ms = Warden_sim.Engine.memsys eng in
      let ss = Warden_sim.Memsys.sstats ms in
      let ps = Warden_sim.Memsys.pstats ms in
      let ca, ct =
        Warden_sim.Llc.chunks_stats (Warden_sim.Memsys.llc ms)
      in
      ( {
          sc_wall = acc.sc_wall +. wall;
          sc_instrs = acc.sc_instrs + ss.Warden_sim.Sstats.instructions;
          sc_inv = acc.sc_inv + ps.Warden_proto.Pstats.invalidations;
          sc_down = acc.sc_down + ps.Warden_proto.Pstats.downgrades;
          sc_chunks_alloc = acc.sc_chunks_alloc + ca;
          sc_chunks_total = acc.sc_chunks_total + ct;
          sc_verified = acc.sc_verified && verified;
        },
        warm_n + if warm then 1 else 0 ))
    ( {
        sc_wall = 0.;
        sc_instrs = 0;
        sc_inv = 0;
        sc_down = 0;
        sc_chunks_alloc = 0;
        sc_chunks_total = 0;
        sc_verified = true;
      },
      0 )
    specs

let run_scale () =
  section "Scale study: 64 -> 512 cores on the hierarchical directory";
  let names =
    match filter_names with
    | None -> scale_kernels
    | Some ns -> (
        match List.filter (fun n -> List.mem n ns) scale_kernels with
        | [] -> scale_kernels
        | picked -> picked)
  in
  let specs =
    List.map
      (fun n ->
        match Warden_pbbs.Suite.find n with
        | Some s -> s
        | None -> invalid_arg ("scale: unknown kernel " ^ n))
      names
  in
  Printf.printf "kernels: %s (quick scales); machines: %s\n%!"
    (String.concat ", " names)
    (String.concat ", "
       (List.map
          (fun s -> Printf.sprintf "%d sockets x 16c" s)
          scale_sockets));
  let sweep_t0 = Unix.gettimeofday () in
  let warm_cells = ref 0 in
  let total_cells = ref 0 in
  let cells =
    List.map
      (fun sockets ->
        let cores = sockets * 16 in
        let m, warm_m = run_scale_cell ~sockets ~proto:`Mesi specs in
        let w, warm_w = run_scale_cell ~sockets ~proto:`Warden specs in
        warm_cells := !warm_cells + warm_m + warm_w;
        total_cells := !total_cells + (2 * List.length specs);
        let mips c =
          if c.sc_wall > 0. then float_of_int c.sc_instrs /. c.sc_wall /. 1e6
          else 0.
        in
        Printf.printf
          "%4d cores: mesi %6.3f s (%5.2f sim MIPS, inv+down %7d)  warden \
           %6.3f s (%5.2f sim MIPS, inv+down %7d)  llc chunks %d/%d\n%!"
          cores m.sc_wall (mips m) (m.sc_inv + m.sc_down) w.sc_wall (mips w)
          (w.sc_inv + w.sc_down) w.sc_chunks_alloc w.sc_chunks_total;
        (cores, m, w))
      scale_sockets
  in
  let sweep_elapsed = Unix.gettimeofday () -. sweep_t0 in
  let verified =
    List.for_all (fun (_, m, w) -> m.sc_verified && w.sc_verified) cells
  in
  (* The traffic gate, endpoint to endpoint: the inv+down traffic each
     protocol *adds* between the smallest and the largest machine.
     WARDen must pay strictly less for the same growth in sharing width
     — the downgrades MESI keeps issuing on every join line are the ones
     WARD reconciliation spares, so the absolute gap must widen as the
     machine grows. Intermediate sizes are printed for the figure but
     not gated: per-step increments are small differences of small
     counts and too noisy to promise monotonicity on. *)
  let traffic c = c.sc_inv + c.sc_down in
  let base_cores, base_m, base_w = List.hd cells in
  let last_cores, last_m, last_w =
    List.fold_left (fun _ c -> c) (List.hd cells) cells
  in
  List.iter
    (fun (cores, m, w) ->
      if cores <> base_cores then
        Printf.printf
          "traffic added %d -> %d cores: mesi +%d, warden +%d\n" base_cores
          cores
          (traffic m - traffic base_m)
          (traffic w - traffic base_w))
    cells;
  let grow_m = traffic last_m - traffic base_m in
  let grow_w = traffic last_w - traffic base_w in
  let traffic_ok = grow_w < grow_m in
  Printf.printf
    "traffic growth %d -> %d cores: mesi +%d, warden +%d -> %s\n" base_cores
    last_cores grow_m grow_w
    (if traffic_ok then "warden grows strictly slower"
     else "NOT SLOWER");
  (* Flat snapshot: one pseudo-kernel per (size, protocol) cell plus the
     aggregate sim MIPS, so `bench compare BENCH_scale_baseline.json
     BENCH_scale.json` applies the ordinary budgets. *)
  let kernels =
    List.concat_map
      (fun (cores, m, w) ->
        [
          (Printf.sprintf "scale:%dc:mesi" cores, m.sc_wall *. 1e3);
          (Printf.sprintf "scale:%dc:warden" cores, w.sc_wall *. 1e3);
        ])
      cells
  in
  let wall =
    List.fold_left (fun a (_, m, w) -> a +. m.sc_wall +. w.sc_wall) 0. cells
  in
  let instrs =
    List.fold_left (fun a (_, m, w) -> a + m.sc_instrs + w.sc_instrs) 0 cells
  in
  let mips = if wall > 0. then float_of_int instrs /. wall /. 1e6 else 0. in
  let s = render_snapshot ~kernels ~wall ~instrs ~cycles:0 in
  let oc = open_out "BENCH_scale.json" in
  output_string oc s;
  close_out oc;
  append_history ~wall ~instrs ~cycles:0 ~mips;
  Printf.printf "suite: %.3f s wall, %.2f sim MIPS -> BENCH_scale.json\n" wall
    mips;
  (* The snapshot-cache gate: a fully warm sweep must cut the sweep's own
     wall clock by at least 30% against the cold walls it reproduced —
     otherwise restoring is not buying the iteration speed it exists for.
     [wall] is the sum of sidecar cold walls, so the comparison is against
     exactly the simulations the restores skipped. *)
  let warm_ok =
    if snap_cache_dir = None || !warm_cells = 0 then true
    else if !warm_cells < !total_cells then begin
      Printf.printf
        "snap-cache: %d/%d cells warm (mixed sweep; the >=30%% gate needs \
         all cells warm)\n"
        !warm_cells !total_cells;
      true
    end
    else begin
      let saved = 100. *. (1. -. (sweep_elapsed /. wall)) in
      Printf.printf
        "snap-cache: warm sweep %.3f s vs cold %.3f s: %.0f%% saved (floor \
         30%%)\n"
        sweep_elapsed wall saved;
      if sweep_elapsed > 0.7 *. wall then begin
        Printf.printf
          "REGRESSION: warm sweep saved only %.0f%% of the cold wall clock \
           (floor 30%%)\n"
          saved;
        false
      end
      else true
    end
  in
  if not (verified && traffic_ok && warm_ok) then begin
    Printf.printf "SCALE GATE FAILED: verified %b, warden traffic growth \
                   strictly slower %b, warm-sweep saving %b\n"
      verified traffic_ok warm_ok;
    exit 1
  end
  else
    Printf.printf
      "ok: scale gate passed (WARDen traffic grows strictly slower than \
       MESI from %d to %d cores)\n"
      base_cores last_cores

(* ------------------------------------------------------------------ *)
(* replay mode: trace-driven replay vs the program model               *)
(* ------------------------------------------------------------------ *)

module Stream = Warden_trace.Stream

(* The replay gate (DESIGN.md §15): replaying a recorded commit-order
   stream straight through the memory system must beat re-running the
   program model by at least [replay_floor]x on this host, while
   reproducing the recording run's memory-system statistics byte for
   byte. Three passes: live (timed), record (untimed — the sink is on,
   so its cost never pollutes the live number), replay (timed).

   The floor is bounded by Amdahl, not by the frontend: decoding the
   stream costs ~17 ns/event (35x faster than the ~600 ns/event of a
   live program-model run), but the memory-system transition work —
   which replay executes bit for bit identically to live, or the stats
   would not match — is ~135 ns/event and is paid by both sides. That
   caps the end-to-end ratio near (600 + 135)/(17 + 135) ~ 3.5x on this
   workload; measured 3.1-3.8x across scales (EXPERIMENTS.md "Replay
   speedup"). 2.5 is the largest floor that holds under shared-runner
   noise. The order-of-magnitude iteration win the snapshot work targets
   comes from scale-mode snapshot caching (--snap-cache), which skips
   re-simulation entirely rather than re-running it faster. *)
let replay_floor = 2.5
let replay_kernel = "msort"

let run_replay () =
  section "Replay gate: trace-driven replay vs the program model";
  let spec = Option.get (Warden_pbbs.Suite.find replay_kernel) in
  let scale = Exp.scale_of ~quick spec in
  let config = Config.dual_socket () in
  let eng_live = Warden_sim.Engine.create config ~proto:`Warden in
  let t0 = Unix.gettimeofday () in
  let ok_live =
    spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL eng_live
  in
  let wall_live = Unix.gettimeofday () -. t0 in
  let ms_live = Warden_sim.Engine.memsys eng_live in
  let stats_live = Stream.stats_text ms_live in
  let eng_rec = Warden_sim.Engine.create config ~proto:`Warden in
  let ok_rec, stream =
    Stream.record (Warden_sim.Engine.memsys eng_rec) (fun () ->
        spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL eng_rec)
  in
  let eng_rep = Warden_sim.Engine.create config ~proto:`Warden in
  let ms_rep = Warden_sim.Engine.memsys eng_rep in
  let t0 = Unix.gettimeofday () in
  ignore (Stream.replay stream ms_rep);
  let wall_replay = Unix.gettimeofday () -. t0 in
  let stats_equal = String.equal stats_live (Stream.stats_text ms_rep) in
  let speedup = if wall_replay > 0. then wall_live /. wall_replay else 0. in
  Printf.printf
    "replay: %s (scale %d), %d events: live %.4f s, replay %.4f s -> %.1fx \
     (floor %.1fx); stats byte-identical: %b\n"
    replay_kernel scale (Stream.events stream) wall_live wall_replay speedup
    replay_floor stats_equal;
  (* The same stream through MESI: the trace-driven A/B comparison,
     reported but not gated. *)
  let eng_ab = Warden_sim.Engine.create config ~proto:`Mesi in
  let ms_ab = Warden_sim.Engine.memsys eng_ab in
  ignore (Stream.replay stream ms_ab);
  let coh ms =
    let p = Warden_sim.Memsys.pstats ms in
    p.Warden_proto.Pstats.invalidations + p.Warden_proto.Pstats.downgrades
  in
  Printf.printf
    "replay A/B on the same stream: inv+down %d (warden) vs %d (mesi)\n"
    (coh ms_rep) (coh ms_ab);
  let instrs =
    (Warden_sim.Memsys.sstats ms_live).Warden_sim.Sstats.instructions
  in
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "{\n";
  addf "  \"jobs\": 1,\n";
  addf "  \"obs_level\": \"%s\",\n" obs_level;
  addf "  \"kernels_ms_per_run\": {\n";
  addf "    \"replay:live:%s\": %.3f,\n" replay_kernel (wall_live *. 1e3);
  addf "    \"replay:replay:%s\": %.3f\n" replay_kernel (wall_replay *. 1e3);
  addf "  },\n";
  addf "  \"replay_kernel\": \"%s\",\n" replay_kernel;
  addf "  \"replay_scale\": %d,\n" scale;
  addf "  \"replay_events\": %d,\n" (Stream.events stream);
  addf "  \"replay_speedup\": %.2f,\n" speedup;
  addf "  \"replay_floor\": %.2f,\n" replay_floor;
  addf "  \"replay_stats_equal\": %d,\n" (if stats_equal then 1 else 0);
  addf "  \"replay_ab_warden_invdown\": %d,\n" (coh ms_rep);
  addf "  \"replay_ab_mesi_invdown\": %d,\n" (coh ms_ab);
  addf "  \"quick_suite_wall_s\": %.3f,\n" wall_live;
  addf "  \"quick_suite_sim_instructions\": %d,\n" instrs;
  addf "  \"quick_suite_sim_cycles\": %d,\n"
    (Warden_sim.Memsys.sstats ms_live).Warden_sim.Sstats.cycles;
  addf "  \"sim_mips\": %.3f\n"
    (if wall_live > 0. then float_of_int instrs /. wall_live /. 1e6 else 0.);
  addf "}\n";
  let oc = open_out "BENCH_replay.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote BENCH_replay.json\n%!";
  if not (ok_live && ok_rec && stats_equal && speedup >= replay_floor) then begin
    Printf.printf
      "REPLAY GATE FAILED: verified %b/%b, stats byte-identical %b, \
       speedup %.1fx (floor %.1fx)\n"
      ok_live ok_rec stats_equal speedup replay_floor;
    exit 1
  end
  else
    Printf.printf "ok: replay gate passed (%.1fx over the program model)\n"
      speedup

(* ------------------------------------------------------------------ *)
(* serve mode: the serving-tier MESI-vs-WARDen gate                    *)
(* ------------------------------------------------------------------ *)

module Serve = Warden_serve.Serve
module Hist = Warden_obs.Hist

let serve_params =
  if quick then
    { Serve.default with Serve.requests = 50_000; keys = 16_384 }
  else { Serve.default with Serve.requests = 200_000 }

(* A flat snapshot in the same shape as BENCH_sim.json — sim_mips and
   kernels_ms_per_run up front so `bench compare BENCH_serve_baseline.json
   BENCH_serve.json` gates it unchanged — followed by the serving-mix
   comparison fields (all simulated quantities except the wall times). *)
let render_serve_snapshot (p : Serve.params) (rm : Serve.result)
    (rw : Serve.result) ~wall_m ~wall_w =
  let buf = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let instrs = rm.Serve.instructions + rw.Serve.instructions in
  let wall = wall_m +. wall_w in
  addf "{\n";
  addf "  \"jobs\": %d,\n" jobs;
  addf "  \"obs_level\": \"%s\",\n" obs_level;
  addf "  \"kernels_ms_per_run\": {\n";
  addf "    \"serve:mesi\": %.3f,\n" (wall_m *. 1e3);
  addf "    \"serve:warden\": %.3f\n" (wall_w *. 1e3);
  addf "  },\n";
  addf "  \"serve_requests\": %d,\n" p.Serve.requests;
  addf "  \"serve_keys\": %d,\n" p.Serve.keys;
  addf "  \"serve_theta\": %g,\n" p.Serve.theta;
  addf "  \"serve_read_frac\": %g,\n" p.Serve.read_frac;
  addf "  \"serve_scan_frac\": %g,\n" p.Serve.scan_frac;
  addf "  \"serve_verified\": %d,\n"
    (if rm.Serve.verified && rw.Serve.verified then 1 else 0);
  addf "  \"serve_equal_results\": %d,\n"
    (if Serve.equal_results rm rw then 1 else 0);
  addf "  \"serve_checksum\": \"%Lx\",\n" rw.Serve.checksum;
  addf "  \"serve_mesi_inv\": %d,\n" rm.Serve.invalidations;
  addf "  \"serve_mesi_down\": %d,\n" rm.Serve.downgrades;
  addf "  \"serve_warden_inv\": %d,\n" rw.Serve.invalidations;
  addf "  \"serve_warden_down\": %d,\n" rw.Serve.downgrades;
  let coh r = r.Serve.invalidations + r.Serve.downgrades in
  addf "  \"serve_traffic_reduction_pct\": %.2f,\n"
    (100.
    *. float_of_int (coh rm - coh rw)
    /. float_of_int (max 1 (coh rm)));
  addf "  \"serve_mesi_cycles\": %d,\n" rm.Serve.cycles;
  addf "  \"serve_warden_cycles\": %d,\n" rw.Serve.cycles;
  addf "  \"serve_mesi_rps\": %.1f,\n" rm.Serve.rps;
  addf "  \"serve_warden_rps\": %.1f,\n" rw.Serve.rps;
  addf "  \"serve_mesi_energy_pj\": %.1f,\n" rm.Serve.energy_pj;
  addf "  \"serve_warden_energy_pj\": %.1f,\n" rw.Serve.energy_pj;
  List.iter
    (fun (proto, (r : Serve.result)) ->
      List.iter
        (fun (nm, q) ->
          addf "  \"serve_%s_lat_p%s\": %.3f,\n" proto nm
            (Hist.percentile r.Serve.lat ~cls:Serve.cls_all q))
        [ ("50", 50.); ("95", 95.); ("99", 99.); ("999", 99.9) ])
    [ ("mesi", rm); ("warden", rw) ];
  addf "  \"quick_suite_wall_s\": %.3f,\n" wall;
  addf "  \"quick_suite_sim_instructions\": %d,\n" instrs;
  addf "  \"quick_suite_sim_cycles\": %d,\n"
    (rm.Serve.cycles + rw.Serve.cycles);
  addf "  \"sim_mips\": %.3f\n"
    (if wall > 0. then float_of_int instrs /. wall /. 1e6 else 0.);
  addf "}\n";
  Buffer.contents buf

let run_serve () =
  section
    (Printf.sprintf "Serve mode: %d-request serving mix, MESI vs WARDen"
       serve_params.Serve.requests);
  let timed proto =
    let t0 = Unix.gettimeofday () in
    let r =
      Serve.run_proto ~params:serve_params ~machine:(Config.dual_socket ())
        ~proto ()
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let rm, wall_m, rw, wall_w =
    match Pool.map ~jobs timed [ `Mesi; `Warden ] with
    | [ (rm, wm); (rw, ww) ] -> (rm, wm, rw, ww)
    | _ -> assert false
  in
  print_string (Serve.summary rm);
  print_string (Serve.summary rw);
  let coh (r : Serve.result) = r.Serve.invalidations + r.Serve.downgrades in
  let equal = Serve.equal_results rm rw in
  let win = coh rw < coh rm in
  Printf.printf
    "equal results: %b; inv+down %d (mesi) vs %d (warden): %s\n" equal
    (coh rm) (coh rw)
    (if win then
       Printf.sprintf "-%.1f%%"
         (100. *. float_of_int (coh rm - coh rw) /. float_of_int (max 1 (coh rm)))
     else "NO REDUCTION");
  let s = render_serve_snapshot serve_params rm rw ~wall_m ~wall_w in
  let oc = open_out "BENCH_serve.json" in
  output_string oc s;
  close_out oc;
  print_string s;
  Printf.printf "wrote BENCH_serve.json\n%!";
  if not (rm.Serve.verified && rw.Serve.verified && equal && win) then begin
    Printf.printf
      "SERVE GATE FAILED: verified %b/%b, equal results %b, warden \
       traffic win %b\n"
      rm.Serve.verified rw.Serve.verified equal win;
    exit 1
  end
  else Printf.printf "ok: serve gate passed\n"

(* ------------------------------------------------------------------ *)
(* zoo mode: the four-protocol comparison and its traffic gate         *)
(* ------------------------------------------------------------------ *)

(* The fig7/8 kernel set under every protocol in the zoo (DESIGN.md §16):
   runtime, coherence-maintenance traffic and energy, side by side on the
   dual-socket machine. The gate extends the paper's central claim across
   the zoo: on [zoo_gate_kernel] WARDen's inv+down traffic must sit
   strictly below directory MESI's eager invalidations *and* below SI/SD's
   fence-driven self-invalidation sweeps — cheaper than both the eager and
   the lazy extreme, not merely different. *)
let zoo_kernels = [ "fib"; "msort"; "quickhull"; "palindrome" ]
let zoo_gate_kernel = "msort"

(* JSON key fragment for a protocol ("msi-bus" -> "msi_bus"). *)
let zoo_key_proto p =
  String.map (fun c -> if c = '-' then '_' else c) (Exp.proto_name p)

(* Every violated traffic comparison on the gate kernel — all of them, so
   one CI log diagnoses the whole four-protocol failure. *)
let zoo_gate_failures ~traffic =
  List.filter_map
    (fun rival ->
      let w = traffic `Warden and r = traffic rival in
      Printf.printf "zoo gate: %s inv+down: warden %d vs %s %d -> %s\n"
        zoo_gate_kernel w (Exp.proto_name rival) r
        (if w < r then "strictly below" else "NOT BELOW");
      if w < r then None
      else
        Some
          (Printf.sprintf
             "warden inv+down (%d) is not strictly below %s's (%d) on %s" w
             (Exp.proto_name rival) r zoo_gate_kernel))
    [ `Mesi; `Sisd ]

let run_zoo_mode () =
  section "Protocol zoo: fig7/8 kernels under every coherence protocol";
  let names =
    match filter_names with
    | None -> zoo_kernels
    | Some ns -> (
        match List.filter (fun n -> List.mem n ns) zoo_kernels with
        | [] -> zoo_kernels
        | picked -> picked)
  in
  let config = Config.dual_socket () in
  let cells =
    List.map
      (fun n ->
        let spec = Option.get (Warden_pbbs.Suite.find n) in
        let t0 = Unix.gettimeofday () in
        let rs = Exp.run_zoo ~quick ~jobs ~config spec in
        (n, (List.combine Exp.zoo rs, Unix.gettimeofday () -. t0)))
      names
  in
  List.iter
    (fun (n, (rs, _)) ->
      let base = List.assoc `Mesi rs in
      Printf.printf "%s:\n  %-8s %12s %9s %10s %9s %14s\n" n "proto" "cycles"
        "vs-mesi" "inv+down" "vs-mesi" "energy (pJ)";
      List.iter
        (fun (p, r) ->
          Printf.printf "  %-8s %12d %8.3fx %10d %8.2fx %14.1f\n"
            (Exp.proto_name p) r.Exp.cycles
            (float_of_int base.Exp.cycles /. float_of_int (max 1 r.Exp.cycles))
            (Exp.inv_down r)
            (float_of_int (Exp.inv_down r)
            /. float_of_int (max 1 (Exp.inv_down base)))
            r.Exp.energy_total_pj)
        rs)
    cells;
  let verified =
    List.for_all
      (fun (_, (rs, _)) -> List.for_all (fun (_, r) -> r.Exp.verified) rs)
      cells
  in
  let failures = ref (if verified then [] else [ "a zoo run failed result \
                                                 verification" ]) in
  let gated = List.mem_assoc zoo_gate_kernel cells in
  (if not gated then
     Printf.printf
       "note: gate kernel %s filtered out; the traffic gate did not run\n"
       zoo_gate_kernel
   else
     let rs, _ = List.assoc zoo_gate_kernel cells in
     let traffic p = Exp.inv_down (List.assoc p rs) in
     failures := !failures @ zoo_gate_failures ~traffic);
  (* Flat snapshot: per-kernel host walls gate under the ordinary
     [compare] budgets; the per-cell traffic/cycles/energy keys feed
     [compare --zoo] and the EXPERIMENTS.md figure. *)
  let wall = List.fold_left (fun a (_, (_, w)) -> a +. w) 0. cells in
  let instrs =
    List.fold_left
      (fun a (_, (rs, _)) ->
        List.fold_left (fun a (_, r) -> a + r.Exp.instructions) a rs)
      0 cells
  in
  let cycles =
    List.fold_left
      (fun a (_, (rs, _)) ->
        List.fold_left (fun a (_, r) -> a + r.Exp.cycles) a rs)
      0 cells
  in
  let buf = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "{\n";
  addf "  \"jobs\": %d,\n" jobs;
  addf "  \"obs_level\": \"%s\",\n" obs_level;
  addf "  \"kernels_ms_per_run\": {\n";
  List.iteri
    (fun i (n, (_, w)) ->
      addf "    \"zoo:%s\": %.3f%s\n" n (w *. 1e3)
        (if i = List.length cells - 1 then "" else ","))
    cells;
  addf "  },\n";
  addf "  \"zoo_gate_kernel\": \"%s\",\n" zoo_gate_kernel;
  addf "  \"zoo_gated\": %d,\n" (if gated then 1 else 0);
  addf "  \"zoo_verified\": %d,\n" (if verified then 1 else 0);
  List.iter
    (fun (n, (rs, _)) ->
      List.iter
        (fun (p, r) ->
          let kp = zoo_key_proto p in
          addf "  \"zoo_%s_%s_invdown\": %d,\n" n kp (Exp.inv_down r);
          addf "  \"zoo_%s_%s_cycles\": %d,\n" n kp r.Exp.cycles;
          addf "  \"zoo_%s_%s_energy_pj\": %.1f,\n" n kp r.Exp.energy_total_pj)
        rs)
    cells;
  addf "  \"quick_suite_wall_s\": %.3f,\n" wall;
  addf "  \"quick_suite_sim_instructions\": %d,\n" instrs;
  addf "  \"quick_suite_sim_cycles\": %d,\n" cycles;
  addf "  \"sim_mips\": %.3f\n"
    (if wall > 0. then float_of_int instrs /. wall /. 1e6 else 0.);
  addf "}\n";
  let oc = open_out "BENCH_zoo.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote BENCH_zoo.json\n%!";
  match !failures with
  | [] -> Printf.printf "ok: zoo gate passed\n"
  | fs ->
      List.iter (fun f -> Printf.printf "REGRESSION: %s\n" f) fs;
      Printf.printf "ZOO GATE FAILED (%d problem(s) above)\n" (List.length fs);
      exit 1

(* [compare --zoo [FILE]]: re-run the traffic gate over an existing
   BENCH_zoo.json. Missing keys and violated comparisons are all
   accumulated and reported before the non-zero exit. *)
let run_compare_zoo () =
  let file = match snapshot_args with [] -> "BENCH_zoo.json" | f :: _ -> f in
  let s = slurp file in
  let problems = ref [] in
  let number key =
    match scan_number s key with
    | Some f -> Some f
    | None ->
        problems := Printf.sprintf "no numeric \"%s\" in %s" key file
                    :: !problems;
        None
  in
  (match number "zoo_verified" with
  | Some 1. | None -> ()
  | Some _ -> problems := "snapshot reports zoo_verified = 0" :: !problems);
  (match number "zoo_gated" with
  | Some 0. ->
      problems :=
        "snapshot was taken with the gate kernel filtered out" :: !problems
  | _ -> ());
  let traffic p =
    number
      (Printf.sprintf "zoo_%s_%s_invdown" zoo_gate_kernel (zoo_key_proto p))
  in
  let w = traffic `Warden in
  List.iter
    (fun rival ->
      match (w, traffic rival) with
      | Some w, Some r ->
          Printf.printf "zoo gate: %s inv+down: warden %.0f vs %s %.0f -> %s\n"
            zoo_gate_kernel w (Exp.proto_name rival) r
            (if w < r then "strictly below" else "NOT BELOW");
          if not (w < r) then
            problems :=
              Printf.sprintf
                "warden inv+down (%.0f) is not strictly below %s's (%.0f) on \
                 %s"
                w (Exp.proto_name rival) r zoo_gate_kernel
              :: !problems
      | _ -> ())
    [ `Mesi; `Sisd ];
  match List.rev !problems with
  | [] -> Printf.printf "ok: zoo gate passed (%s)\n" file
  | ps ->
      List.iter (fun p -> Printf.printf "REGRESSION: %s\n" p) ps;
      Printf.printf "ZOO GATE FAILED (%d problem(s) above)\n" (List.length ps);
      exit 1

let () =
  if compare_mode && Cliscan.has cli "--overhead" then run_overhead ()
  else if compare_mode && Cliscan.has cli "--zoo" then run_compare_zoo ()
  else if compare_mode then run_compare ()
  else if scale_mode then run_scale ()
  else if serve_mode then run_serve ()
  else if replay_mode then run_replay ()
  else if zoo_mode then run_zoo_mode ()
  else if json_mode then run_json ()
  else begin
    Printf.printf
      "WARDen reproduction bench harness (%s scales, %d job(s))\n\
       Every run simulates the full machine: caches, directory, protocol, \
       runtime.\n"
      (if quick then "quick" else "paper")
      jobs;
    let ok = run_paper_experiments () in
    run_ablations ();
    run_scaling_studies ();
    run_bechamel ();
    Printf.printf "\nDONE. all benchmark runs verified: %b\n" ok;
    exit (if ok then 0 else 1)
  end
