(* warden-cli: run the paper's experiments and individual benchmarks. *)

open Cmdliner
open Warden_machine
open Warden_sim
open Warden_harness
module A = Warden_args
module Spec = Warden_pbbs.Spec
module Obs = Warden_obs.Obs
module Serve = Warden_serve.Serve

(* Malformed values are usage errors (exit 124), reported before any
   work: the converters of [Warden_args] reject what no machine accepts,
   and a command's [run] returns [Error] for what the chosen machine
   does not, before it simulates anything. *)
let usage = Term.term_result' ~usage:true
let ( let* ) = Result.bind
let exit_of_bool ok = if ok then 0 else 1
let proto_name = Exp.proto_name
let seed = 0x5EEDF00DL

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use reduced problem sizes.")

let machine_arg =
  Arg.(
    value
    & opt A.machine (Config.dual_socket ())
    & info [ "machine"; "m" ] ~docv:"MACHINE" ~absent:"dual"
        ~doc:"Machine: single, dual, disagg, or a socket count (1-62).")

let obs_arg =
  Arg.(
    value
    & opt (some A.obs) None
    & info [ "obs" ] ~docv:"LEVEL"
        ~doc:
          "Observability level: $(b,off), $(b,counters) or $(b,full) \
           (default: off). Recording never perturbs \
           simulated cycles, statistics or energy.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out"; "o" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON file of the run's coherence \
           events (open in about://tracing or ui.perfetto.dev). Implies at \
           least $(b,--obs full) for the traced runs.")

let proto_arg ~zoo ~doc =
  Arg.(
    value & opt (A.protos ~zoo) A.Both & info [ "proto"; "p" ] ~docv:"PROTO" ~doc)

let name_arg c ~doc =
  Arg.(required & pos 0 (some c) None & info [] ~docv:"NAME" ~doc)

let scale_arg ~doc =
  Arg.(value & opt (some A.positive) None & info [ "scale"; "s" ] ~docv:"N" ~doc)

let workers_arg =
  Arg.(
    value
    & opt (some A.positive) None
    & info [ "workers"; "w" ] ~docv:"W"
        ~doc:"Worker threads, up to the machine's hardware threads (default: all).")

let check_workers config = function
  | Some w when w > Config.num_threads config ->
      Error
        (Printf.sprintf "--workers %d: the %s machine has %d hardware threads" w
           config.Config.name (Config.num_threads config))
  | _ -> Ok ()

(* The level a command runs at: [--trace-out] upgrades to full even past
   an explicit lower [--obs], since asking for a trace is asking for
   recording, and a silently empty trace file would be worse than
   overriding the flag. *)
let with_obs ?(default = Config.Obs_off) config ~obs ~trace_out =
  let level =
    if trace_out <> None then Config.Obs_full else Option.value obs ~default
  in
  { config with Config.obs_level = level }

let write_chrome_trace file runs =
  let buf = Buffer.create (1 lsl 16) in
  Warden_obs.Sink_chrome.write buf ~runs;
  let oc = open_out file in
  Buffer.output_buffer oc buf;
  close_out oc;
  let events, dropped =
    List.fold_left
      (fun (e, d) (_, _, sink) ->
        ( e + Warden_obs.Sink_chrome.length sink,
          d + Warden_obs.Sink_chrome.dropped sink ))
      (0, 0) runs
  in
  Printf.printf "wrote %s: %d events across %d run(s)%s\n" file events
    (List.length runs)
    (if dropped > 0 then Printf.sprintf " (%d dropped at capacity)" dropped
     else "")

(* --- snapshots (DESIGN.md §15) ------------------------------------------- *)

let snapshot_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-out" ] ~docv:"FILE"
        ~doc:
          "After the run, save the full simulator state as a snapshot \
           (restore with $(b,--snapshot-in)). Requires a single $(b,--proto). \
           Anything that changes simulated results is fingerprinted and \
           checked on restore.")

let snapshot_in_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-in" ] ~docv:"FILE"
        ~doc:
          "Before the run, restore the simulator state from a snapshot taken \
           on an identical machine and protocol, so the run continues from \
           the saved point instead of cold state. Requires a single \
           $(b,--proto).")

let check_single_proto ~snap_in ~snap_out = function
  | A.One _ -> Ok ()
  | _ when snap_in = None && snap_out = None -> Ok ()
  | _ -> Error "--snapshot-in/--snapshot-out need a single --proto"

(* A snapshot or trace that cannot be read or decoded is a user error:
   name the file and the fault, and exit with cmdliner's some_error code
   rather than as an uncaught exception. *)
let or_input_error file f =
  try f () with
  | Warden_util.Bin.Corrupt msg | Sys_error msg ->
      Printf.eprintf "warden-cli: %s: %s\n%!" file msg;
      exit Cmd.Exit.some_error

let apply_snapshot_in eng = function
  | None -> ()
  | Some file ->
      or_input_error file (fun () ->
          Warden_snap.Snap.restore eng (Warden_util.Bin.read_file file));
      Printf.printf "restored snapshot %s\n" file

let apply_snapshot_out eng = function
  | None -> ()
  | Some file ->
      Warden_util.Bin.write_file file (Warden_snap.Snap.to_bytes eng);
      Printf.printf "wrote snapshot %s\n" file

(* --- the run path of bench, profile and trace ----------------------------- *)

(* One kernel under one protocol on a fresh engine, between the optional
   snapshot restore and save. Returns the verdict, the host seconds of
   the run itself and the memory system. *)
let run_kernel ?snap_in ?snap_out ?workers ~config ~scale spec proto =
  let eng = Engine.create config ~proto in
  apply_snapshot_in eng snap_in;
  let t0 = Unix.gettimeofday () in
  let ok = spec.Spec.run ~scale ~seed ?workers eng in
  let host = Unix.gettimeofday () -. t0 in
  apply_snapshot_out eng snap_out;
  (ok, host, Engine.memsys eng)

type outcome = { ok : bool; cycles : int; coh : int; obs : Obs.t }

(* Coherence-maintenance traffic on one axis across the zoo: directory
   invalidations and downgrades plus the SI/SD self-events. *)
let outcome ok ms =
  let ps = Memsys.pstats ms in
  let open Warden_proto.Pstats in
  {
    ok;
    cycles = (Memsys.sstats ms).Sstats.cycles;
    coh = ps.invalidations + ps.downgrades + ps.self_invs + ps.self_downs;
    obs = Memsys.obs ms;
  }

(* Runs [one] under each protocol of the selection, lets [compare] print
   the cross-protocol lines, writes the Chrome trace of every run, and
   exits 0 iff every run verified. *)
let run_protos ?(compare = fun _ _ -> ()) ~trace_out sel one =
  let rs = List.map (fun p -> (p, one p)) (A.protos_list sel) in
  compare sel rs;
  Option.iter
    (fun file ->
      write_chrome_trace file
        (List.mapi
           (fun pid (p, o) -> (pid, proto_name p, Obs.chrome o.obs))
           rs))
    trace_out;
  exit_of_bool (List.for_all (fun (_, o) -> o.ok) rs)

let scale_of ~quick spec = function
  | Some s -> s
  | None -> Exp.scale_of ~quick spec

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (s : Spec.t) ->
        Printf.printf "%-14s (default scale %8d)  %s\n" s.Spec.name
          s.Spec.default_scale s.Spec.descr)
      Warden_pbbs.Suite.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the PBBS-like benchmarks.")
    Term.(const run $ const ())

(* --- bench --------------------------------------------------------------- *)

(* MESI against WARDen, or every protocol against MESI: cycles and
   coherence-maintenance traffic side by side. *)
let compare_protos sel rs =
  match (sel, rs) with
  | A.Both, [ (_, m); (_, w) ] ->
      Printf.printf "speedup (mesi/warden): %.3fx\n"
        (float_of_int m.cycles /. float_of_int w.cycles)
  | A.Zoo, (_, base) :: _ ->
      Printf.printf "\n%-8s %12s %10s %12s %10s\n" "proto" "cycles" "vs mesi"
        "inv+down" "vs mesi";
      List.iter
        (fun (p, o) ->
          Printf.printf "%-8s %12d %9.3fx %12d %9.2fx\n" (proto_name p) o.cycles
            (float_of_int base.cycles /. float_of_int (max 1 o.cycles))
            o.coh
            (float_of_int o.coh /. float_of_int (max 1 base.coh)))
        rs
  | _ -> ()

let bench_cmd =
  let run spec sel machine scale workers quick obs trace_out snap_in snap_out =
    let* () = check_workers machine workers in
    let* () = check_single_proto ~snap_in ~snap_out sel in
    let config = with_obs machine ~obs ~trace_out in
    let scale = scale_of ~quick spec scale in
    let one proto =
      let ok, host, ms =
        run_kernel ?snap_in ?snap_out ?workers ~config ~scale spec proto
      in
      let ss = Memsys.sstats ms in
      let ps = Memsys.pstats ms in
      let en = Memsys.energy ms in
      Printf.printf
        "%s/%s on %s: %s in %d cycles (%.2fs host)\n\
        \  instrs %d  IPC %.3f  l1-hits %d  l2-hits %d  misses %d\n\
        \  inv %d  down %d  self-inv %d  self-down %d  msgs %d  \
         ward-grants %d  reconciled %d\n\
        \  energy: processor %.3f mJ, network %.3f mJ\n"
        spec.Spec.name (proto_name proto) config.Config.name
        (if ok then "verified" else "FAILED VERIFICATION")
        ss.Sstats.cycles host ss.Sstats.instructions (Sstats.ipc ss)
        ss.Sstats.l1_hits ss.Sstats.l2_hits ss.Sstats.priv_misses
        ps.Warden_proto.Pstats.invalidations ps.Warden_proto.Pstats.downgrades
        ps.Warden_proto.Pstats.self_invs ps.Warden_proto.Pstats.self_downs
        (Warden_proto.Pstats.total_msgs ps)
        ps.Warden_proto.Pstats.ward_grants ps.Warden_proto.Pstats.recon_blocks
        (Energy.processor_pj en /. 1e9)
        (Energy.network_pj en /. 1e9);
      outcome ok ms
    in
    Ok (run_protos ~compare:compare_protos ~trace_out sel one)
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one benchmark and print its statistics.")
    Term.(
      usage
        (const run
        $ name_arg A.bench
            ~doc:"Benchmark name (see $(b,list)); a $(b,bench/) prefix is accepted."
        $ proto_arg ~zoo:true
            ~doc:
              "Protocol: mesi, warden, msi-bus, sisd, both (mesi+warden), or \
               all (the whole zoo, with a cross-protocol comparison)."
        $ machine_arg
        $ scale_arg ~doc:"Problem size (default: paper scale)."
        $ workers_arg $ quick_arg $ obs_arg $ trace_out_arg $ snapshot_in_arg
        $ snapshot_out_arg))

(* --- serve --------------------------------------------------------------- *)

let host_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
  /. 1e6

let check_cores flag config c =
  match Config.with_cores config c with
  | restricted -> Ok restricted
  | exception Invalid_argument _ ->
      Error
        (Printf.sprintf
           "%s %d: the %s machine takes a multiple of its %d sockets, up to %d \
            cores"
           flag c config.Config.name config.Config.sockets
           (Config.num_cores config))

let serve_cmd =
  let d = Serve.default in
  let count names ~docv ~doc =
    Arg.(value & opt (some A.positive) None & info names ~docv ~doc)
  in
  let positive names default ~docv ~doc =
    Arg.(value & opt A.positive default & info names ~docv ~doc)
  in
  let fraction name default ~doc =
    Arg.(value & opt A.fraction default & info [ name ] ~docv:"F" ~doc)
  in
  let run requests keys zipf read_frac scan_frac scan_len batch grain shards
      seed cores sel machine quick obs json curve snap_in snap_out =
    let* () = check_single_proto ~snap_in ~snap_out sel in
    let* () =
      if (snap_in <> None || snap_out <> None) && curve <> None then
        Error "--snapshot-in/--snapshot-out do not combine with --curve"
      else Ok ()
    in
    let* () =
      if read_frac +. scan_frac > 1. then
        Error
          (Printf.sprintf "--read-frac %g plus --scan-frac %g exceeds 1"
             read_frac scan_frac)
      else Ok ()
    in
    let config = with_obs machine ~obs ~trace_out:None in
    let* config =
      match cores with
      | Some c -> check_cores "--cores" config c
      | None -> Ok config
    in
    let* () =
      List.fold_left
        (fun acc c ->
          let* () = acc in
          Result.map ignore (check_cores "--curve" config c))
        (Ok ()) (Option.value curve ~default:[])
    in
    (* [--quick] shrinks the default problem, but explicit flags always win. *)
    let p : Serve.params =
      {
        requests =
          Option.value requests
            ~default:(if quick then 50_000 else d.Serve.requests);
        keys = Option.value keys ~default:(if quick then 16_384 else d.Serve.keys);
        theta = zipf;
        read_frac;
        scan_frac;
        scan_len;
        batch;
        grain;
        shards;
        seed;
      }
    in
    let protos = A.protos_list sel in
    match curve with
    | Some cores ->
        List.iter
          (fun proto ->
            Printf.printf "requests/sec vs cores [%s] on %s:\n"
              (proto_name proto) config.Config.name;
            List.iter
              (fun (c, rps) ->
                Printf.printf "  %3d cores: %10.0f req/s (%.2f Mreq/s)\n" c rps
                  (rps /. 1e6))
              (Serve.curve ~params:p ~machine:config ~proto cores))
          protos;
        Ok 0
    | None ->
        let results =
          List.map
            (fun proto ->
              let eng = Engine.create config ~proto in
              apply_snapshot_in eng snap_in;
              let r = Serve.run ~params:p eng in
              apply_snapshot_out eng snap_out;
              print_string (Serve.summary r);
              r)
            protos
        in
        (match results with
        | [ rm; rw ] ->
            let coh (r : Serve.result) =
              r.Serve.invalidations + r.Serve.downgrades
            in
            Printf.printf
              "mesi vs warden: speedup %.3fx, inv+down %d -> %d (%+.2f%%), \
               equal results: %b\n"
              (float_of_int rm.Serve.cycles /. float_of_int rw.Serve.cycles)
              (coh rm) (coh rw)
              (100.
              *. (float_of_int (coh rw) -. float_of_int (coh rm))
              /. float_of_int (max 1 (coh rm)))
              (Serve.equal_results rm rw)
        | _ -> ());
        Printf.printf "host heap after run(s): %.1f MB\n" (host_heap_mb ());
        (match json with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            (match results with
            | [ r ] -> output_string oc (Serve.json_summary p r)
            | rs ->
                output_string oc "[\n";
                List.iteri
                  (fun i r ->
                    if i > 0 then output_string oc ",\n";
                    output_string oc (Serve.json_summary p r))
                  rs;
                output_string oc "\n]")
            ;
            output_string oc "\n";
            close_out oc;
            Printf.printf "wrote %s\n" file);
        let ok =
          List.for_all (fun (r : Serve.result) -> r.Serve.verified) results
          && match results with
             | [ rm; rw ] -> Serve.equal_results rm rw
             | _ -> true
        in
        Ok (exit_of_bool ok)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Simulate a server-scale KV serving tier: a deterministic open-loop \
          Zipf workload against a sharded in-memory store on the fork-join \
          runtime, reporting tail latency (p50/p95/p99/p99.9), throughput \
          and the MESI vs WARDen coherence-traffic comparison.")
    Term.(
      usage
        (const run
        $ count [ "requests"; "n" ] ~docv:"N"
            ~doc:
              "Requests to push through the store (default: 1000000, or 50000 \
               with $(b,--quick)). Generation is streamed batch by batch, so \
               host memory stays flat however large $(docv) is."
        $ count [ "keys" ] ~docv:"K"
            ~doc:
              "Distinct keys preloaded into the store (default: 65536, or \
               16384 with $(b,--quick))."
        $ Arg.(
            value
            & opt A.non_negative d.Serve.theta
            & info [ "zipf" ] ~docv:"THETA"
                ~doc:"Zipf skew of key popularity (0 = uniform).")
        $ fraction "read-frac" d.Serve.read_frac
            ~doc:"Fraction of requests that are reads."
        $ fraction "scan-frac" d.Serve.scan_frac
            ~doc:
              "Fraction of requests that are short range scans; with \
               $(b,--read-frac) at most 1."
        $ positive [ "scan-len" ] d.Serve.scan_len ~docv:"L"
            ~doc:"Slots read by one scan."
        $ positive [ "batch" ] d.Serve.batch ~docv:"B"
            ~doc:"Open-loop admission batch; generator memory is O($(docv))."
        $ positive [ "grain" ] d.Serve.grain ~docv:"G"
            ~doc:"Requests per leaf task of the fork-join handler tree."
        $ positive [ "shards" ] d.Serve.shards ~docv:"S"
            ~doc:"Hash shards of the store."
        $ Arg.(
            value & opt int64 d.Serve.seed
            & info [ "seed" ] ~docv:"X" ~doc:"Workload seed (deterministic).")
        $ count [ "cores" ] ~docv:"C"
            ~doc:
              "Restrict the machine to its first $(docv) cores, a multiple \
               of its socket count."
        $ proto_arg ~zoo:true
            ~doc:"Protocol: mesi, warden, msi-bus, sisd, both, or all."
        $ machine_arg $ quick_arg $ obs_arg
        $ Arg.(
            value
            & opt (some string) None
            & info [ "json" ] ~docv:"FILE"
                ~doc:
                  "Write the run's summary (simulated quantities only, so the \
                   bytes are identical run to run) as JSON.")
        $ Arg.(
            value
            & opt (some (list A.positive)) None
            & info [ "curve" ] ~docv:"C1,C2,.."
                ~doc:
                  "Sweep core counts and print the requests/sec curve instead \
                   of a single run.")
        $ snapshot_in_arg $ snapshot_out_arg))

(* --- profile ------------------------------------------------------------- *)

(* [profile serve] gets the serving tier rather than a Suite benchmark:
   the per-class latency report plus the coherence-event summary. *)
let profile_serve ~config ~scale ~workers ~quick proto =
  let p : Serve.params =
    let d = Serve.default in
    let requests =
      match scale with Some s -> s | None -> if quick then 50_000 else 200_000
    in
    { d with Serve.requests; keys = (if quick then 16_384 else d.Serve.keys) }
  in
  let eng = Engine.create config ~proto in
  let r = Serve.run ~params:p ?workers eng in
  let ms = Engine.memsys eng in
  Printf.printf "== serve/%s on %s: %s in %d cycles ==\n\n" (proto_name proto)
    config.Config.name
    (if r.Serve.verified then "verified" else "FAILED VERIFICATION")
    r.Serve.cycles;
  print_string (Serve.summary r);
  print_newline ();
  print_string (Obs.render_summary (Memsys.obs ms));
  print_newline ();
  outcome r.Serve.verified ms

let profile_kernel ~config ~scale ~workers ~quick spec proto =
  let scale = scale_of ~quick spec scale in
  let ok, _, ms = run_kernel ?workers ~config ~scale spec proto in
  Printf.printf "== %s/%s on %s: %s in %d cycles ==\n\n" spec.Spec.name
    (proto_name proto) config.Config.name
    (if ok then "verified" else "FAILED VERIFICATION")
    (Memsys.sstats ms).Sstats.cycles;
  print_string (Obs.render_summary (Memsys.obs ms));
  print_newline ();
  outcome ok ms

let profile_cmd =
  (* The serving tier or a Suite benchmark. *)
  let target =
    Arg.conv'
      ( (fun s ->
          if Filename.basename s = "serve" then Ok None
          else
            Result.map Option.some
              (Result.map_error (fun (`Msg m) -> m) (Arg.conv_parser A.bench s))),
        fun ppf t ->
          Format.pp_print_string ppf
            (match t with Some spec -> spec.Spec.name | None -> "serve") )
  in
  let run target sel machine scale workers quick obs trace_out =
    let* () = check_workers machine workers in
    (* profile records at full level unless the user asks for less. *)
    let config = with_obs ~default:Config.Obs_full machine ~obs ~trace_out in
    let one =
      match target with
      | None -> profile_serve ~config ~scale ~workers ~quick
      | Some spec -> profile_kernel ~config ~scale ~workers ~quick spec
    in
    Ok (run_protos ~trace_out sel one)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one benchmark with the coherence-event recorder at $(b,full) \
          level and print event counts, latency histograms, the hottest \
          blocks and the WARD region table; optionally dump a Chrome trace \
          with $(b,--trace-out).")
    Term.(
      usage
        (const run
        $ name_arg target
            ~doc:
              "Benchmark to profile, or $(b,serve) for the serving tier (a \
               $(b,bench/) prefix is accepted)."
        $ proto_arg ~zoo:false ~doc:"Protocol: mesi, warden, msi-bus, sisd, or both."
        $ machine_arg
        $ scale_arg ~doc:"Problem size (default: paper scale)."
        $ workers_arg $ quick_arg $ obs_arg $ trace_out_arg))

(* --- experiments --------------------------------------------------------- *)

let simple name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let table1_cmd =
  simple "table1" "Reproduce Table 1 (simulator latency validation)." (fun () ->
      print_string (Experiments.render_table1 ());
      0)

let table2_cmd =
  simple "table2" "Print the simulated system specifications (Table 2)."
    (fun () ->
      print_string (Experiments.render_table2 ());
      0)

let fig_cmd name doc config title =
  let run quick jobs =
    let sr =
      Experiments.run_suite ~quick ~jobs ~config:(config ()) ()
    in
    print_string (Experiments.render_perf_energy ~title sr);
    0
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ quick_arg $ A.jobs)

let fig7_cmd =
  fig_cmd "fig7" "Reproduce Figure 7 (single socket)." Config.single_socket
    "Figure 7: performance and energy gains, single socket"

let fig8_cmd =
  fig_cmd "fig8" "Reproduce Figure 8 (dual socket)." Config.dual_socket
    "Figure 8: performance and energy gains, dual socket"

let analysis_cmd =
  let run quick jobs =
    let sr =
      Experiments.run_suite ~quick ~jobs
        ~config:(Config.dual_socket ()) ()
    in
    print_string (Experiments.render_fig9 sr);
    print_newline ();
    print_string (Experiments.render_fig10 sr);
    print_newline ();
    print_string (Experiments.render_fig11 sr);
    0
  in
  Cmd.v
    (Cmd.info "analysis"
       ~doc:"Reproduce Figures 9-11 (dual-socket coherence-event analysis).")
    Term.(const run $ quick_arg $ A.jobs)

let fig12_cmd =
  let run quick jobs =
    let sr =
      Experiments.run_suite ~quick ~jobs
        ~names:Warden_pbbs.Suite.disaggregated_subset
        ~config:(Config.disaggregated ()) ()
    in
    print_string
      (Experiments.render_perf_energy
         ~title:"Figure 12: disaggregated (1 us remote)" sr);
    0
  in
  Cmd.v
    (Cmd.info "fig12" ~doc:"Reproduce Figure 12 (disaggregated system).")
    Term.(const run $ quick_arg $ A.jobs)

let scaling_cmd =
  let run quick jobs =
    let names = [ "dmm"; "msort"; "palindrome"; "quickhull" ] in
    print_string (Experiments.render_worker_scaling ~quick ~jobs ~names ());
    print_newline ();
    print_string (Experiments.render_socket_scaling ~quick ~jobs ~names ());
    0
  in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:"Worker-count and socket-count scaling studies (7.3).")
    Term.(const run $ quick_arg $ A.jobs)

let trace_cmd =
  let run spec machine scale snap_in snap_out =
    let scale = scale_of ~quick:true spec scale in
    (* One pass: the oracle checks the run live and gathers its access
       profile; its verdict gates the exit code. *)
    let (ok, _, _), report =
      Warden_trace.Oracle.with_oracle (fun () ->
          run_kernel ?snap_in ?snap_out ~config:machine ~scale spec `Warden)
    in
    Format.printf "%s (scale %d) under WARDen: %s@.%a@." spec.Spec.name scale
      (if ok then "verified" else "FAILED VERIFICATION")
      Warden_trace.Oracle.pp_profile report;
    let oracle_ok =
      match Warden_trace.Oracle.check_clean report with
      | Ok () -> ok
      | Error msg ->
          Format.printf "oracle: %s@." msg;
          false
    in
    Format.printf "oracle: %d accesses, %.1f%% under WARD, %s@."
      report.Warden_trace.Oracle.accesses
      (100. *. Warden_trace.Oracle.ward_fraction report)
      (if oracle_ok then "clean" else "VIOLATIONS");
    exit_of_bool (ok && oracle_ok)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a benchmark under the live WARD and disentanglement oracle and \
          report its accesses, WARD coverage and the offline region \
          classification.")
    Term.(
      const run
      $ name_arg A.bench ~doc:"Benchmark to trace."
      $ machine_arg
      $ scale_arg ~doc:"Problem size (default: quick)."
      $ snapshot_in_arg $ snapshot_out_arg)

(* --- replay -------------------------------------------------------------- *)

let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Commit-order trace file to replay — or to create, with \
             $(b,--record).")
  in
  let record_arg =
    Arg.(
      value
      & opt (some A.bench) None
      & info [ "record" ] ~docv:"NAME"
          ~doc:
            "Record benchmark $(docv)'s commit-order access stream into \
             $(i,FILE) instead of replaying.")
  in
  let proto_arg =
    Arg.(
      value
      & opt (some A.proto) None
      & info [ "proto"; "p" ]
          ~doc:
            "Protocol: mesi, warden, msi-bus or sisd. Recording defaults to \
             warden; replay defaults to the protocol the trace was recorded \
             under. Replaying onto another protocol is the trace-driven A/B \
             comparison.")
  in
  let stats_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"OUT"
          ~doc:
            "Write the canonical memory-system statistics dump to $(docv). \
             The bytes are identical between a recording run and its \
             same-protocol replay, so two dumps can be checked with \
             $(b,cmp).")
  in
  let run file record proto config scale stats_out =
    let write_stats ms =
      match stats_out with
      | None -> ()
      | Some out ->
          let oc = open_out out in
          output_string oc (Warden_trace.Stream.stats_text ms);
          close_out oc;
          Printf.printf "wrote %s\n" out
    in
    match record with
    | Some spec ->
        let proto = Option.value proto ~default:`Warden in
        let scale = scale_of ~quick:true spec scale in
        let eng = Engine.create config ~proto in
        let t0 = Unix.gettimeofday () in
        let ok, stream =
          Warden_trace.Stream.record (Engine.memsys eng) (fun () ->
              spec.Spec.run ~scale ~seed eng)
        in
        let host = Unix.gettimeofday () -. t0 in
        Warden_util.Bin.write_file file (Warden_trace.Stream.to_bytes stream);
        Printf.printf
          "recorded %s (scale %d) under %s: %s, %d events -> %s (%.2fs host)\n"
          spec.Spec.name scale (proto_name proto)
          (if ok then "verified" else "FAILED VERIFICATION")
          (Warden_trace.Stream.events stream)
          file host;
        write_stats (Engine.memsys eng);
        exit_of_bool ok
    | None ->
        let stream =
          or_input_error file (fun () ->
              Warden_trace.Stream.of_bytes (Warden_util.Bin.read_file file))
        in
        let proto =
          match proto with
          | Some p -> p
          | None ->
              or_input_error file (fun () ->
                  match Arg.conv_parser A.proto (Warden_trace.Stream.proto stream) with
                  | Ok p -> p
                  | Error (`Msg msg) -> raise (Warden_util.Bin.Corrupt msg))
        in
        let eng = Engine.create config ~proto in
        let t0 = Unix.gettimeofday () in
        let n =
          or_input_error file (fun () ->
              Warden_trace.Stream.replay stream (Engine.memsys eng))
        in
        let host = Unix.gettimeofday () -. t0 in
        Printf.printf
          "replayed %d events (recorded under %s) onto %s in %.2fs host \
           (%.1f Mevents/s)\n"
          n
          (Warden_trace.Stream.proto stream)
          (proto_name proto) host
          (float_of_int n /. 1e6 /. max 1e-9 host);
        write_stats (Engine.memsys eng);
        0
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a recorded commit-order access stream straight through the \
          memory system — no program model, no scheduler — reproducing the \
          recording run's memory-system statistics bit-for-bit on the same \
          protocol, or A/B-ing the stream against the other protocol. \
          Record the stream first with $(b,--record).")
    Term.(
      const run $ file_arg $ record_arg $ proto_arg $ machine_arg
      $ scale_arg ~doc:"Problem size when recording (default: quick scale)."
      $ stats_out_arg)

(* --- check --------------------------------------------------------------- *)

let check_cmd =
  let cores_arg =
    Arg.(
      value
      & opt (A.in_range 1 8) 3
      & info [ "cores" ] ~docv:"N" ~doc:"Cores in the small model (1-8).")
  in
  let blocks_arg =
    Arg.(
      value
      & opt (A.in_range 1 256) 2
      & info [ "blocks" ] ~docv:"K"
          ~doc:"Cache blocks in the small model (1-256).")
  in
  let regions_arg =
    Arg.(
      value & opt A.natural 2
      & info [ "regions" ] ~docv:"R" ~doc:"Predefined WARD region menu size.")
  in
  let depth_arg =
    Arg.(
      value & opt A.natural 8
      & info [ "depth" ] ~docv:"D"
          ~doc:"Exhaustive-exploration depth bound (operations).")
  in
  let store_cap_arg =
    Arg.(
      value & opt A.natural 1
      & info [ "store-cap" ] ~docv:"C"
          ~doc:
            "Stores per (core, block) during exploration; keeps the state \
             space finite.")
  in
  let fuzz_steps_arg =
    Arg.(
      value & opt A.natural 3000
      & info [ "fuzz-steps" ] ~docv:"S"
          ~doc:"Length of the random walk (0 disables fuzzing).")
  in
  let seed_arg =
    Arg.(
      value & opt int64 0x5EEDF00DL
      & info [ "seed" ] ~docv:"X" ~doc:"Random-walk seed (deterministic).")
  in
  let open Warden_check in
  let configs =
    Check.
      [
        ([ "mesi" ], mesi);
        ([ "warden" ], warden);
        ([ "msi-bus"; "msibus"; "msi_bus" ], msi_bus);
        ([ "sisd" ], sisd);
        ([ "equiv"; "equivalence" ], equivalence);
        ([ "msi-lockstep"; "msi_lockstep" ], msi_lockstep);
      ]
  in
  let proto_arg =
    let names = "all" :: List.concat_map fst configs in
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) names)) "all"
      & info [ "proto"; "p" ]
          ~doc:
            "Configuration: mesi, warden, msi-bus, sisd, equiv (MESI=WARDen \
             lockstep), msi-lockstep (snooping-MSI=MESI data lockstep), or \
             all.")
  in
  let machine_arg =
    let dual = Config.dual_socket () in
    let mesh = Config.numa_mesh ~sockets:32 ~cores_per_socket:2 () in
    Arg.(
      value
      & opt
          (enum
             [
               ("dual", dual);
               ("single", Config.single_socket ());
               ("mesh", mesh);
             ])
          dual
      & info [ "machine"; "m" ]
          ~doc:
            "Small-model machine: dual (24 cores, the default), single, or \
             mesh (a 32-socket NUMA mesh with 2 cores per socket — 64 cores, \
             so the checker cores span sockets and the directory keeps one \
             sharer word per socket).")
  in
  let run cores blocks regions depth store_cap fuzz_steps seed proto machine =
    let protos =
      List.filter_map
        (fun (ns, c) ->
          if proto = "all" || List.mem proto ns then Some c else None)
        configs
    in
    let one (mk : Check.preset) =
      let cfg = mk ~cores ~blks:blocks ~regions ~store_cap ~machine () in
      let report engine outcome =
        Format.printf "%-12s %-6s %a@." cfg.Check.name engine Check.pp_outcome
          outcome;
        match outcome with Check.Pass _ -> true | Check.Fail _ -> false
      in
      let ok_bfs = report "explore" (Check.explore cfg ~depth) in
      let ok_fuzz =
        fuzz_steps = 0
        || report "fuzz"
             (Check.fuzz cfg ~steps:fuzz_steps ~seed)
      in
      ok_bfs && ok_fuzz
    in
    exit_of_bool (List.for_all one protos)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check the coherence protocols: exhaustively explore a small \
          model (and a MESI/WARDen lockstep equivalence mode), then fuzz it \
          with a deterministic random walk. Exits non-zero on any invariant \
          violation, printing a shrunk counterexample trace.")
    Term.(
      const run $ cores_arg $ blocks_arg $ regions_arg $ depth_arg
      $ store_cap_arg $ fuzz_steps_arg $ seed_arg $ proto_arg $ machine_arg)

let all_cmd =
  let run quick jobs =
    exit_of_bool (Experiments.run_all ~quick ~jobs ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Reproduce every table and figure of the evaluation.")
    Term.(const run $ quick_arg $ A.jobs)

let main =
  Cmd.group
    (Cmd.info "warden-cli" ~version:"1.0.0"
       ~doc:
         "WARDen (CGO 2023) reproduction: specialized cache coherence for \
          high-level parallel languages.")
    [
      list_cmd;
      bench_cmd;
      serve_cmd;
      profile_cmd;
      table1_cmd;
      table2_cmd;
      fig7_cmd;
      fig8_cmd;
      analysis_cmd;
      fig12_cmd;
      scaling_cmd;
      trace_cmd;
      replay_cmd;
      check_cmd;
      all_cmd;
    ]

let () = exit (Cmd.eval' main)
