(* The reproduction harness: regenerates every table and figure of the
   paper's evaluation (§7), runs the ablations called out in DESIGN.md,
   and runs the simulated-result gates that CI holds the model to.

   Run with:  dune exec bench/main.exe             (full paper scales)
              dune exec bench/main.exe -- quick    (reduced scales)
              dune exec bench/main.exe -- scale    (64->512-core many-socket
                                                    study into
                                                    BENCH_scale.json)
              dune exec bench/main.exe -- serve    (serving-tier MESI-vs-WARDen
                                                    gate into BENCH_serve.json)
              dune exec bench/main.exe -- replay   (trace-driven replay: stats
                                                    identity and the MESI A/B,
                                                    into BENCH_replay.json)
              dune exec bench/main.exe -- zoo      (fig7/8 kernels under every
                                                    protocol in the zoo, into
                                                    BENCH_zoo.json, with the
                                                    WARDen traffic gate)
              dune exec bench/main.exe -- overhead (observability-overhead
                                                    gate: counters vs off)
   Every gate judges its results in memory; the BENCH_*.json files are
   written for people and artifacts, never read back. Host time of the
   simulator itself is measured by ledger/ (BENCHMARK.json).
   [--jobs N] (or WARDEN_JOBS) caps the domains used for independent
   simulations; the default is the machine's recommended domain count.
   [--filter SUBSTR] restricts the benchmark suites to matching kernels.
   [--snap-cache DIR] makes the scale mode snapshot each cell's post-run
   state into DIR and restore it on later sweeps (DESIGN.md §15). *)

open Warden_machine
open Warden_harness
open Warden_runtime

module Cliscan = Warden_util.Cliscan
module Json = Warden_util.Json

(* All modes share one scanner, so a flag's value can never leak into the
   positionals (the old hand-rolled walker swallowed a following flag as a
   value). Mode words are positionals; the rest are flags. *)
let cli =
  Cliscan.create
    ~value_flags:[ [ "--jobs"; "-j" ]; [ "--filter" ]; [ "--snap-cache" ] ]
    Sys.argv

(* A retired or misspelt mode word must not fall through to the full
   paper run. *)
let () =
  let modes = [ "quick"; "scale"; "serve"; "replay"; "zoo"; "overhead" ] in
  match
    List.filter (fun w -> not (List.mem w modes)) (Cliscan.positionals cli)
  with
  | [] -> ()
  | w :: _ ->
      Printf.eprintf "bench: unknown mode %S (modes: %s)\n" w
        (String.concat ", " modes);
      exit 2

let has_mode w = List.mem w (Cliscan.positionals cli)
let quick = has_mode "quick"

(* [--snap-cache DIR]: the scale mode saves each cell's post-run engine
   state into DIR and restores it on later sweeps instead of re-simulating
   (DESIGN.md §15). *)
let snap_cache_dir = Cliscan.string_flag cli [ "--snap-cache" ]

(* [--filter SUBSTR] restricts the benchmark suites (paper experiments,
   the overhead gate and the scale and zoo modes) to matching kernels, so
   one benchmark can be studied without editing the suite. *)
let filter = Cliscan.string_flag cli [ "--filter" ]

let filter_names =
  match filter with
  | Some sub -> (
      match Warden_pbbs.Suite.matching sub with
      | [] -> invalid_arg (Printf.sprintf "--filter: %S matches no benchmark" sub)
      | names -> Some names)
  | None ->
      if Cliscan.has cli "--filter" then
        invalid_arg "--filter: expected a substring"
      else None

(* A mode's own kernels under [--filter]. A filter that matches none of
   them is a usage error: running all of them instead would hide the
   typo behind a long, plausible-looking run. *)
let mode_kernels mode kernels =
  match (filter, filter_names) with
  | Some sub, Some ns -> (
      match List.filter (fun n -> List.mem n ns) kernels with
      | [] ->
          Printf.eprintf
            "bench %s: --filter %S matches none of its kernels (%s)\n" mode sub
            (String.concat ", " kernels);
          exit 2
      | picked -> picked)
  | _ -> kernels

let jobs =
  match Cliscan.int_flag cli [ "--jobs"; "-j" ] with
  | Some n -> n
  | None -> Pool.default_jobs ()

let section title =
  Printf.printf "\n%s\n%s\n\n%!" title (String.make (String.length title) '=')

(* A gate's snapshot: one JSON object of the results it judged. *)
let write_snapshot file fields =
  let oc = open_out file in
  output_string oc (Json.obj fields ^ "\n");
  close_out oc;
  Printf.printf "wrote %s\n%!" file

(* Verdicts are written as 0/1, the snapshots' format since they began. *)
let bit b = Json.int (if b then 1 else 0)

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
(* overhead mode: what counters-level recording costs                 *)
(* ------------------------------------------------------------------ *)

(* The observability budget (DESIGN.md §12): recording at counters level
   may cost at most 3% of host time. Each quick-suite kernel runs on the
   dual-socket machine under MESI and WARDen, one simulation at a time,
   [overhead_runs] times at each level; the level is set through the
   config record, and the side that runs first flips from pair to pair so
   a drift in host speed favours neither. The gate compares the sums of
   the per-kernel medians. *)
let overhead_budget = 1.03
let overhead_runs = 5

let run_overhead () =
  section "Observability overhead: counters vs off (quick suite, jobs=1)";
  let specs =
    match filter_names with
    | None -> Warden_pbbs.Suite.all
    | Some ns -> List.filter_map Warden_pbbs.Suite.find ns
  in
  let time_kernel level spec =
    let config = { (Config.dual_socket ()) with Config.obs_level = level } in
    let t0 = Unix.gettimeofday () in
    let ok =
      List.for_all
        (fun proto ->
          (Exp.run_bench ~quick:true ~config ~proto spec).Exp.verified)
        [ `Mesi; `Warden ]
    in
    if not ok then begin
      Printf.printf "OVERHEAD GATE FAILED: %s did not verify\n"
        spec.Warden_pbbs.Spec.name;
      exit 1
    end;
    Unix.gettimeofday () -. t0
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let off_total, on_total =
    List.fold_left
      (fun (off_sum, on_sum) spec ->
        let offs = ref [] and ons = ref [] in
        for i = 1 to overhead_runs do
          let off () = offs := time_kernel Config.Obs_off spec :: !offs in
          let on () = ons := time_kernel Config.Obs_counters spec :: !ons in
          if i mod 2 = 1 then (off (); on ()) else (on (); off ())
        done;
        let off = median !offs and on = median !ons in
        Printf.printf "%-14s off %9.2f ms  counters %9.2f ms  %+6.1f%%\n%!"
          spec.Warden_pbbs.Spec.name (off *. 1e3) (on *. 1e3)
          (100. *. ((on /. off) -. 1.));
        (off_sum +. off, on_sum +. on))
      (0., 0.) specs
  in
  let overhead = 100. *. ((on_total /. off_total) -. 1.) in
  Printf.printf
    "sum of medians: off %.3f s, counters %.3f s: %+.2f%% (budget %.0f%%)\n"
    off_total on_total overhead
    (100. *. (overhead_budget -. 1.));
  if on_total > overhead_budget *. off_total then begin
    Printf.printf "OVERHEAD GATE FAILED: counters cost %.2f%% of host time\n"
      overhead;
    exit 1
  end
  else Printf.printf "ok: observability overhead within budget\n"

(* ------------------------------------------------------------------ *)
(* scale mode: 64 -> 512 cores on numa_mesh machines                  *)
(* ------------------------------------------------------------------ *)

(* The socket-scaling study past the paper's testbeds (DESIGN.md §14):
   quick kernels on [Config.numa_mesh] machines from 64 to 512 cores
   under both protocols, sequentially (no pool fan-out — the printed wall
   clocks are per cell). Each cell is timed end to end, engine creation
   included, because the lazily-chunked LLC slices are half the point.
   The run fails unless WARDen's invalidation+downgrade traffic grows
   strictly slower than MESI's from the smallest machine to the largest:
   the traffic *added* by going from 64 to 512 cores must be smaller
   under WARDen. (A relative-factor gate would be vacuous the other way:
   WARDen's absolute traffic is 2-3x lower throughout, so any common
   growth term looms larger against its smaller base.) *)

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
   carry — the verification verdict and the cold run's wall clock, which
   the warm-sweep gate measures against. The wall is printed with %.17g
   so it round-trips exactly. *)
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
  let names = mode_kernels "scale" scale_kernels in
  section "Scale study: 64 -> 512 cores on numa_mesh machines";
  let specs = List.map (fun n -> Option.get (Warden_pbbs.Suite.find n)) names in
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
  let last_cores, last_m, last_w = List.nth cells (List.length cells - 1) in
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
  write_snapshot "BENCH_scale.json"
    ([ ("scale_kernels", Json.string (String.concat "," names)) ]
    @ List.concat_map
        (fun (cores, m, w) ->
          List.concat_map
            (fun (p, c) ->
              let k field = Printf.sprintf "scale_%dc_%s_%s" cores p field in
              [
                (k "verified", bit c.sc_verified);
                (k "instructions", Json.int c.sc_instrs);
                (k "inv", Json.int c.sc_inv);
                (k "down", Json.int c.sc_down);
                (k "llc_chunks_allocated", Json.int c.sc_chunks_alloc);
                (k "llc_chunks_total", Json.int c.sc_chunks_total);
              ])
            [ ("mesi", m); ("warden", w) ])
        cells
    @ [
        ("scale_traffic_growth_mesi", Json.int grow_m);
        ("scale_traffic_growth_warden", Json.int grow_w);
      ]);
  (* The snapshot-cache gate: a fully warm sweep must cut the sweep's own
     wall clock by at least 30% against the cold walls it reproduced —
     otherwise restoring is not buying the iteration speed it exists for.
     [wall] is the sum of sidecar cold walls, so the comparison is against
     exactly the simulations the restores skipped. *)
  let wall =
    List.fold_left (fun a (_, m, w) -> a +. m.sc_wall +. w.sc_wall) 0. cells
  in
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
(* replay mode: trace-driven replay reproduces the live run           *)
(* ------------------------------------------------------------------ *)

module Stream = Warden_trace.Stream

(* The replay gate (DESIGN.md §15): replaying a recorded commit-order
   stream straight through the memory system must reproduce the
   recording run's memory-system statistics byte for byte, and the same
   stream replayed under MESI must pay strictly more invalidations and
   downgrades than under WARDen (the trace-driven A/B).
   Three passes: live, record (the same run with the sink on: recording
   must not perturb it), replay. Nothing here is timed: what replay costs
   against the program model is a ledger figure, replay-msort's
   host_ns_per_access against msort-dual's (bench/trajectory.jsonl),
   measured in interleaved pairs rather than from one pass of each. *)
let replay_kernel = "msort"

let run_replay () =
  section "Replay gate: trace-driven replay reproduces the live run";
  let spec = Option.get (Warden_pbbs.Suite.find replay_kernel) in
  let scale = Exp.scale_of ~quick spec in
  let config = Config.dual_socket () in
  let eng_live = Warden_sim.Engine.create config ~proto:`Warden in
  let ok_live =
    spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL eng_live
  in
  let stats_live =
    Stream.stats_text (Warden_sim.Engine.memsys eng_live)
  in
  let eng_rec = Warden_sim.Engine.create config ~proto:`Warden in
  let ok_rec, stream =
    Stream.record (Warden_sim.Engine.memsys eng_rec) (fun () ->
        spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL eng_rec)
  in
  let eng_rep = Warden_sim.Engine.create config ~proto:`Warden in
  let ms_rep = Warden_sim.Engine.memsys eng_rep in
  ignore (Stream.replay stream ms_rep);
  let stats_equal = String.equal stats_live (Stream.stats_text ms_rep) in
  Printf.printf
    "replay: %s (scale %d), %d events; stats byte-identical: %b\n"
    replay_kernel scale (Stream.events stream) stats_equal;
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
  write_snapshot "BENCH_replay.json"
    [
      ("replay_kernel", Json.string replay_kernel);
      ("replay_scale", Json.int scale);
      ("replay_events", Json.int (Stream.events stream));
      ("replay_stats_equal", bit stats_equal);
      ("replay_ab_warden_invdown", Json.int (coh ms_rep));
      ("replay_ab_mesi_invdown", Json.int (coh ms_ab));
    ];
  let ab_ok = coh ms_rep < coh ms_ab in
  if not (ok_live && ok_rec && stats_equal && ab_ok) then begin
    Printf.printf
      "REPLAY GATE FAILED: verified %b/%b, stats byte-identical %b, \
       WARDen inv+down below MESI's %b\n"
      ok_live ok_rec stats_equal ab_ok;
    exit 1
  end
  else
    print_endline
      "ok: replay gate passed (stats byte-identical, WARDen inv+down below \
       MESI's)"

(* ------------------------------------------------------------------ *)
(* serve mode: the serving-tier MESI-vs-WARDen gate                    *)
(* ------------------------------------------------------------------ *)

module Serve = Warden_serve.Serve
module Hist = Warden_obs.Hist

let serve_params =
  if quick then
    { Serve.default with Serve.requests = 50_000; keys = 16_384 }
  else { Serve.default with Serve.requests = 200_000 }

(* The serving-mix comparison: simulated quantities only. *)
let serve_snapshot (p : Serve.params) (rm : Serve.result) (rw : Serve.result)
    =
  let coh r = r.Serve.invalidations + r.Serve.downgrades in
  [
    ("serve_requests", Json.int p.Serve.requests);
    ("serve_keys", Json.int p.Serve.keys);
    ("serve_theta", Json.float p.Serve.theta);
    ("serve_read_frac", Json.float p.Serve.read_frac);
    ("serve_scan_frac", Json.float p.Serve.scan_frac);
    ("serve_verified", bit (rm.Serve.verified && rw.Serve.verified));
    ("serve_equal_results", bit (Serve.equal_results rm rw));
    ("serve_checksum", Json.string (Printf.sprintf "%Lx" rw.Serve.checksum));
    ("serve_mesi_inv", Json.int rm.Serve.invalidations);
    ("serve_mesi_down", Json.int rm.Serve.downgrades);
    ("serve_warden_inv", Json.int rw.Serve.invalidations);
    ("serve_warden_down", Json.int rw.Serve.downgrades);
    ( "serve_traffic_reduction_pct",
      Json.float ~decimals:2
        (100. *. float_of_int (coh rm - coh rw)
        /. float_of_int (max 1 (coh rm))) );
    ("serve_mesi_cycles", Json.int rm.Serve.cycles);
    ("serve_warden_cycles", Json.int rw.Serve.cycles);
    ("serve_mesi_rps", Json.float ~decimals:1 rm.Serve.rps);
    ("serve_warden_rps", Json.float ~decimals:1 rw.Serve.rps);
    ("serve_mesi_energy_pj", Json.float ~decimals:1 rm.Serve.energy_pj);
    ("serve_warden_energy_pj", Json.float ~decimals:1 rw.Serve.energy_pj);
  ]
  @ List.concat_map
      (fun (proto, (r : Serve.result)) ->
        List.map
          (fun (nm, q) ->
            ( Printf.sprintf "serve_%s_lat_p%s" proto nm,
              Json.float ~decimals:3
                (Hist.percentile r.Serve.lat ~cls:Serve.cls_all q) ))
          [ ("50", 50.); ("95", 95.); ("99", 99.); ("999", 99.9) ])
      [ ("mesi", rm); ("warden", rw) ]

let run_serve () =
  section
    (Printf.sprintf "Serve mode: %d-request serving mix, MESI vs WARDen"
       serve_params.Serve.requests);
  let rm, rw =
    match
      Pool.map ~jobs
        (fun proto ->
          Serve.run_proto ~params:serve_params ~machine:(Config.dual_socket ())
            ~proto ())
        [ `Mesi; `Warden ]
    with
    | [ rm; rw ] -> (rm, rw)
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
  write_snapshot "BENCH_serve.json" (serve_snapshot serve_params rm rw);
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
  let names = mode_kernels "zoo" zoo_kernels in
  section "Protocol zoo: fig7/8 kernels under every coherence protocol";
  let config = Config.dual_socket () in
  let cells =
    List.map
      (fun n ->
        let spec = Option.get (Warden_pbbs.Suite.find n) in
        (n, List.combine Exp.zoo (Exp.run_zoo ~quick ~jobs ~config spec)))
      names
  in
  List.iter
    (fun (n, rs) ->
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
    List.for_all (fun (_, rs) -> List.for_all (fun (_, r) -> r.Exp.verified) rs)
      cells
  in
  let gated = List.mem_assoc zoo_gate_kernel cells in
  let failures =
    (if verified then [] else [ "a zoo run failed result verification" ])
    @
    if gated then
      let rs = List.assoc zoo_gate_kernel cells in
      zoo_gate_failures ~traffic:(fun p -> Exp.inv_down (List.assoc p rs))
    else []
  in
  write_snapshot "BENCH_zoo.json"
    ([
       ("zoo_gate_kernel", Json.string zoo_gate_kernel);
       ("zoo_gated", bit gated);
       ("zoo_verified", bit verified);
     ]
    @ List.concat_map
        (fun (n, rs) ->
          List.concat_map
            (fun (p, r) ->
              let k field =
                Printf.sprintf "zoo_%s_%s_%s" n (zoo_key_proto p) field
              in
              [
                (k "invdown", Json.int (Exp.inv_down r));
                (k "cycles", Json.int r.Exp.cycles);
                (k "energy_pj", Json.float ~decimals:1 r.Exp.energy_total_pj);
              ])
            rs)
        cells);
  match failures with
  | [] when gated -> Printf.printf "ok: zoo gate passed\n"
  | [] ->
      Printf.printf
        "zoo gate did not run: gate kernel %s is filtered out (every run \
         verified)\n"
        zoo_gate_kernel
  | fs ->
      List.iter (fun f -> Printf.printf "REGRESSION: %s\n" f) fs;
      Printf.printf "ZOO GATE FAILED (%d problem(s) above)\n" (List.length fs);
      exit 1

let () =
  if has_mode "overhead" then run_overhead ()
  else if has_mode "scale" then run_scale ()
  else if has_mode "serve" then run_serve ()
  else if has_mode "replay" then run_replay ()
  else if has_mode "zoo" then run_zoo_mode ()
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
    Printf.printf "\nDONE. all benchmark runs verified: %b\n" ok;
    exit (if ok then 0 else 1)
  end
