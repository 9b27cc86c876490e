(* warden-cli: run the paper's experiments and individual benchmarks. *)

open Cmdliner
open Warden_machine
open Warden_sim
open Warden_harness

let machine_of = function
  | "single" -> Config.single_socket ()
  | "dual" -> Config.dual_socket ()
  | "disagg" | "disaggregated" -> Config.disaggregated ()
  | s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Config.many_socket ~sockets:n ()
      | _ -> invalid_arg ("unknown machine: " ^ s))

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use reduced problem sizes.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains for running independent simulations in parallel \
           (default: $(b,WARDEN_JOBS) or the recommended domain count).")

let machine_arg =
  Arg.(
    value
    & opt string "dual"
    & info [ "machine"; "m" ] ~docv:"MACHINE"
        ~doc:"Machine: single, dual, disagg, or a socket count.")

let obs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs" ] ~docv:"LEVEL"
        ~doc:
          "Observability level: $(b,off), $(b,counters) or $(b,full) \
           (default: $(b,WARDEN_OBS) or off). Recording never perturbs \
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

(* --trace-out upgrades to full even past an explicit lower --obs:
   asking for a trace is asking for ring recording, and a silently empty
   trace file would be worse than overriding the flag. *)
let apply_obs ~obs ~trace_out =
  (match obs with
  | Some s -> (
      match Config.obs_level_of_string s with
      | Some l -> Config.set_default_obs_level l
      | None -> invalid_arg ("unknown obs level: " ^ s))
  | None -> ());
  if trace_out <> None then Config.set_default_obs_level Config.Obs_full

(* Accept "bench/fib" for "fib": people tab-complete paths. *)
let strip_bench_prefix name =
  match Warden_pbbs.Suite.find name with
  | Some _ -> name
  | None ->
      let base = Filename.basename name in
      if base <> name && Warden_pbbs.Suite.find base <> None then base
      else name

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

let exit_of_bool ok = if ok then 0 else 1
let proto_name = Exp.proto_name

let proto_of_string = function
  | "mesi" -> `Mesi
  | "warden" -> `Warden
  | "msi-bus" | "msibus" | "msi_bus" -> `Msi_bus
  | "sisd" -> `Sisd
  | p -> failwith ("unknown protocol " ^ p)

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

let require_single_proto ~snap_in ~snap_out proto =
  if (snap_in <> None || snap_out <> None) && (proto = "both" || proto = "all")
  then
    failwith "--snapshot-in/--snapshot-out need a single --proto"

let apply_snapshot_in eng = function
  | None -> ()
  | Some file ->
      Warden_snap.Snap.load_file eng file;
      Printf.printf "restored snapshot %s\n" file

let apply_snapshot_out eng = function
  | None -> ()
  | Some file ->
      Warden_snap.Snap.save_file eng file;
      Printf.printf "wrote snapshot %s\n" file

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (s : Warden_pbbs.Spec.t) ->
        Printf.printf "%-14s (default scale %8d)  %s\n" s.Warden_pbbs.Spec.name
          s.Warden_pbbs.Spec.default_scale s.Warden_pbbs.Spec.descr)
      Warden_pbbs.Suite.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the PBBS-like benchmarks.")
    Term.(const run $ const ())

(* --- bench --------------------------------------------------------------- *)

let bench_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Benchmark name (see $(b,list)).")
  in
  let proto_arg =
    Arg.(
      value
      & opt string "both"
      & info [ "proto"; "p" ]
          ~doc:
            "Protocol: mesi, warden, msi-bus, sisd, both (mesi+warden), or \
             all (the whole zoo, with a cross-protocol comparison).")
  in
  let scale_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "scale"; "s" ] ~docv:"N" ~doc:"Problem size (default: paper scale).")
  in
  let workers_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers"; "w" ] ~doc:"Worker threads (default: all).")
  in
  let run name proto machine scale workers quick obs trace_out
      snap_in snap_out =
    apply_obs ~obs ~trace_out;
    require_single_proto ~snap_in ~snap_out proto;
    let name = strip_bench_prefix name in
    let spec =
      match Warden_pbbs.Suite.find name with
      | Some s -> s
      | None -> failwith ("unknown benchmark " ^ name)
    in
    let config = machine_of machine in
    let one proto =
      let eng = Engine.create config ~proto in
      apply_snapshot_in eng snap_in;
      let scale =
        match scale with Some s -> s | None -> Exp.scale_of ~quick spec
      in
      let t0 = Unix.gettimeofday () in
      let ok = spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL ?workers eng in
      let host = Unix.gettimeofday () -. t0 in
      apply_snapshot_out eng snap_out;
      let ms = Engine.memsys eng in
      let ss = Memsys.sstats ms in
      let ps = Memsys.pstats ms in
      let en = Memsys.energy ms in
      Printf.printf
        "%s/%s on %s: %s in %d cycles (%.2fs host)\n\
        \  instrs %d  IPC %.3f  l1-hits %d  l2-hits %d  misses %d\n\
        \  inv %d  down %d  self-inv %d  self-down %d  msgs %d  \
         ward-grants %d  reconciled %d\n\
        \  energy: processor %.3f mJ, network %.3f mJ\n"
        name (proto_name proto) config.Config.name
        (if ok then "verified" else "FAILED VERIFICATION")
        ss.Sstats.cycles host ss.Sstats.instructions (Sstats.ipc ss)
        ss.Sstats.l1_hits ss.Sstats.l2_hits ss.Sstats.priv_misses
        ps.Warden_proto.Pstats.invalidations ps.Warden_proto.Pstats.downgrades
        ps.Warden_proto.Pstats.self_invs ps.Warden_proto.Pstats.self_downs
        (Warden_proto.Pstats.total_msgs ps)
        ps.Warden_proto.Pstats.ward_grants ps.Warden_proto.Pstats.recon_blocks
        (Energy.processor_pj en /. 1e9)
        (Energy.network_pj en /. 1e9);
      let coh =
        ps.Warden_proto.Pstats.invalidations
        + ps.Warden_proto.Pstats.downgrades
        + ps.Warden_proto.Pstats.self_invs
        + ps.Warden_proto.Pstats.self_downs
      in
      (ok, ss.Sstats.cycles, coh, (proto_name proto, Memsys.obs ms))
    in
    let emit_trace runs =
      match trace_out with
      | None -> ()
      | Some file ->
          write_chrome_trace file
            (List.mapi
               (fun pid (pname, obs) -> (pid, pname, Warden_obs.Obs.chrome obs))
               runs)
    in
    match proto with
    | "both" ->
        let ok_m, cy_m, _, run_m = one `Mesi in
        let ok_w, cy_w, _, run_w = one `Warden in
        Printf.printf "speedup (mesi/warden): %.3fx\n"
          (float_of_int cy_m /. float_of_int cy_w);
        emit_trace [ run_m; run_w ];
        exit_of_bool (ok_m && ok_w)
    | "all" | "zoo" ->
        (* The cross-protocol comparison: every protocol runs the same
           benchmark; cycles and coherence-maintenance traffic (inv+down,
           with the SI/SD self-events on the same axis) line up against
           the MESI baseline. *)
        let rs = List.map (fun p -> (p, one p)) Exp.zoo in
        (match rs with
        | (_, (_, cy_m, coh_m, _)) :: _ ->
            Printf.printf "\n%-8s %12s %10s %12s %10s\n" "proto" "cycles"
              "vs mesi" "inv+down" "vs mesi";
            List.iter
              (fun (p, (_, cy, coh, _)) ->
                Printf.printf "%-8s %12d %9.3fx %12d %9.2fx\n" (proto_name p)
                  cy
                  (float_of_int cy_m /. float_of_int (max 1 cy))
                  coh
                  (float_of_int coh /. float_of_int (max 1 coh_m)))
              rs
        | [] -> ());
        emit_trace (List.map (fun (_, (_, _, _, run)) -> run) rs);
        exit_of_bool (List.for_all (fun (_, (ok, _, _, _)) -> ok) rs)
    | p ->
        let ok, _, _, run = one (proto_of_string p) in
        emit_trace [ run ];
        exit_of_bool ok
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one benchmark and print its statistics.")
    Term.(
      const run $ name_arg $ proto_arg $ machine_arg $ scale_arg $ workers_arg
      $ quick_arg $ obs_arg $ trace_out_arg $ snapshot_in_arg
      $ snapshot_out_arg)

(* --- serve --------------------------------------------------------------- *)

module Serve = Warden_serve.Serve

(* [--quick] shrinks the default problem, but explicit flags always win. *)
let serve_params ~quick ~requests ~keys ~zipf ~read_frac ~scan_frac ~scan_len
    ~batch ~grain ~shards ~seed : Serve.params =
  let d = Serve.default in
  let requests =
    match requests with
    | Some n -> n
    | None -> if quick then 50_000 else d.Serve.requests
  in
  let keys =
    match keys with Some k -> k | None -> if quick then 16_384 else d.Serve.keys
  in
  {
    requests;
    keys;
    theta = zipf;
    read_frac;
    scan_frac;
    scan_len;
    batch;
    grain;
    shards;
    seed;
  }

let host_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
  /. 1e6

let serve_cmd =
  let d = Serve.default in
  let requests_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "requests"; "n" ] ~docv:"N"
          ~doc:
            "Requests to push through the store (default: 1000000, or 50000 \
             with $(b,--quick)). Generation is streamed batch by batch, so \
             host memory stays flat however large $(docv) is.")
  in
  let keys_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "keys" ] ~docv:"K"
          ~doc:
            "Distinct keys preloaded into the store (default: 65536, or \
             16384 with $(b,--quick)).")
  in
  let zipf_arg =
    Arg.(
      value & opt float d.Serve.theta
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:"Zipf skew of key popularity (0 = uniform).")
  in
  let read_frac_arg =
    Arg.(
      value
      & opt float d.Serve.read_frac
      & info [ "read-frac" ] ~docv:"F" ~doc:"Fraction of requests that are reads.")
  in
  let scan_frac_arg =
    Arg.(
      value
      & opt float d.Serve.scan_frac
      & info [ "scan-frac" ] ~docv:"F"
          ~doc:"Fraction of requests that are short range scans.")
  in
  let scan_len_arg =
    Arg.(
      value & opt int d.Serve.scan_len
      & info [ "scan-len" ] ~docv:"L" ~doc:"Slots read by one scan.")
  in
  let batch_arg =
    Arg.(
      value & opt int d.Serve.batch
      & info [ "batch" ] ~docv:"B"
          ~doc:"Open-loop admission batch; generator memory is O($(docv)).")
  in
  let grain_arg =
    Arg.(
      value & opt int d.Serve.grain
      & info [ "grain" ] ~docv:"G"
          ~doc:"Requests per leaf task of the fork-join handler tree.")
  in
  let shards_arg =
    Arg.(
      value & opt int d.Serve.shards
      & info [ "shards" ] ~docv:"S" ~doc:"Hash shards of the store.")
  in
  let seed_arg =
    Arg.(
      value & opt int64 d.Serve.seed
      & info [ "seed" ] ~docv:"X" ~doc:"Workload seed (deterministic).")
  in
  let cores_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cores" ] ~docv:"C" ~doc:"Override the machine's core count.")
  in
  let proto_arg =
    Arg.(
      value
      & opt string "both"
      & info [ "proto"; "p" ] ~doc:"Protocol: mesi, warden, msi-bus, sisd, both, or all.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the run's summary (simulated quantities only, so the \
             bytes are identical run to run) as JSON.")
  in
  let curve_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "curve" ] ~docv:"C1,C2,.."
          ~doc:
            "Sweep core counts and print the requests/sec curve instead of \
             a single run.")
  in
  let run requests keys zipf read_frac scan_frac scan_len batch grain shards
      seed cores proto machine quick obs json curve snap_in
      snap_out =
    apply_obs ~obs ~trace_out:None;
    require_single_proto ~snap_in ~snap_out proto;
    if (snap_in <> None || snap_out <> None) && curve <> None then
      failwith "--snapshot-in/--snapshot-out do not combine with --curve";
    let config = machine_of machine in
    let config =
      match cores with Some c -> Config.with_cores config c | None -> config
    in
    let p =
      serve_params ~quick ~requests ~keys ~zipf ~read_frac ~scan_frac ~scan_len
        ~batch ~grain ~shards ~seed
    in
    let protos =
      match proto with
      | "both" -> [ `Mesi; `Warden ]
      | "all" | "zoo" -> (Exp.zoo :> [ `Mesi | `Warden | `Msi_bus | `Sisd ] list)
      | pr -> [ proto_of_string pr ]
    in
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
        0
    | None ->
        let results =
          List.map
            (fun proto ->
              let r =
                if snap_in = None && snap_out = None then
                  Serve.run_proto ~params:p ~machine:config ~proto ()
                else begin
                  (* Snapshot paths need the engine in hand; the single-proto
                     guard above makes this branch unambiguous. *)
                  let eng = Engine.create config ~proto in
                  apply_snapshot_in eng snap_in;
                  let r = Serve.run ~params:p eng in
                  apply_snapshot_out eng snap_out;
                  r
                end
              in
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
        exit_of_bool ok
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Simulate a server-scale KV serving tier: a deterministic open-loop \
          Zipf workload against a sharded in-memory store on the fork-join \
          runtime, reporting tail latency (p50/p95/p99/p99.9), throughput \
          and the MESI vs WARDen coherence-traffic comparison.")
    Term.(
      const run $ requests_arg $ keys_arg $ zipf_arg $ read_frac_arg
      $ scan_frac_arg $ scan_len_arg $ batch_arg $ grain_arg $ shards_arg
      $ seed_arg $ cores_arg $ proto_arg $ machine_arg $ quick_arg
      $ obs_arg $ json_arg $ curve_arg $ snapshot_in_arg
      $ snapshot_out_arg)

(* --- profile ------------------------------------------------------------- *)

(* [profile serve] gets the serving tier rather than a Suite benchmark:
   the per-class latency report plus the coherence-event summary. *)
let profile_serve ~config ~proto ~scale ~workers ~quick ~trace_out =
  let p : Serve.params =
    let d = Serve.default in
    let requests =
      match scale with Some s -> s | None -> if quick then 50_000 else 200_000
    in
    { d with Serve.requests; keys = (if quick then 16_384 else d.Serve.keys) }
  in
  let one proto =
    let eng = Engine.create config ~proto in
    let r = Serve.run ~params:p ?workers eng in
    let ms = Engine.memsys eng in
    Printf.printf "== serve/%s on %s: %s in %d cycles ==\n\n" (proto_name proto)
      config.Config.name
      (if r.Serve.verified then "verified" else "FAILED VERIFICATION")
      r.Serve.cycles;
    print_string (Serve.summary r);
    print_newline ();
    print_string (Warden_obs.Obs.render_summary (Memsys.obs ms));
    print_newline ();
    (r.Serve.verified, (proto_name proto, Memsys.obs ms))
  in
  let emit_trace runs =
    match trace_out with
    | None -> ()
    | Some file ->
        write_chrome_trace file
          (List.mapi
             (fun pid (pname, obs) -> (pid, pname, Warden_obs.Obs.chrome obs))
             runs)
  in
  match proto with
  | "both" ->
      let ok_m, run_m = one `Mesi in
      let ok_w, run_w = one `Warden in
      emit_trace [ run_m; run_w ];
      exit_of_bool (ok_m && ok_w)
  | p ->
      let ok, run = one (proto_of_string p) in
      emit_trace [ run ];
      exit_of_bool ok

let profile_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Benchmark to profile (a $(b,bench/) prefix is accepted).")
  in
  let proto_arg =
    Arg.(
      value
      & opt string "both"
      & info [ "proto"; "p" ] ~doc:"Protocol: mesi, warden, msi-bus, sisd, both, or all.")
  in
  let scale_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "scale"; "s" ] ~docv:"N" ~doc:"Problem size (default: paper scale).")
  in
  let workers_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers"; "w" ] ~doc:"Worker threads (default: all).")
  in
  let run name proto machine scale workers quick obs trace_out =
    (* profile records at full level unless the user asks for less. *)
    apply_obs ~obs:(Some (Option.value obs ~default:"full")) ~trace_out;
    let config = machine_of machine in
    if Filename.basename name = "serve" then
      profile_serve ~config ~proto ~scale ~workers ~quick ~trace_out
    else begin
    let name = strip_bench_prefix name in
    let spec =
      match Warden_pbbs.Suite.find name with
      | Some s -> s
      | None -> failwith ("unknown benchmark " ^ name)
    in
    let one proto =
      let eng = Engine.create config ~proto in
      let scale =
        match scale with Some s -> s | None -> Exp.scale_of ~quick spec
      in
      let ok = spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL ?workers eng in
      let ms = Engine.memsys eng in
      let ss = Memsys.sstats ms in
      Printf.printf "== %s/%s on %s: %s in %d cycles ==\n\n" name
        (proto_name proto) config.Config.name
        (if ok then "verified" else "FAILED VERIFICATION")
        ss.Sstats.cycles;
      print_string (Warden_obs.Obs.render_summary (Memsys.obs ms));
      print_newline ();
      (ok, (proto_name proto, Memsys.obs ms))
    in
    let emit_trace runs =
      match trace_out with
      | None -> ()
      | Some file ->
          write_chrome_trace file
            (List.mapi
               (fun pid (pname, obs) -> (pid, pname, Warden_obs.Obs.chrome obs))
               runs)
    in
    match proto with
    | "both" ->
        let ok_m, run_m = one `Mesi in
        let ok_w, run_w = one `Warden in
        emit_trace [ run_m; run_w ];
        exit_of_bool (ok_m && ok_w)
    | p ->
        let ok, run = one (proto_of_string p) in
        emit_trace [ run ];
        exit_of_bool ok
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one benchmark with the coherence-event recorder at $(b,full) \
          level and print event counts, latency histograms, the hottest \
          blocks and the WARD region table; optionally dump a Chrome trace \
          with $(b,--trace-out).")
    Term.(
      const run $ name_arg $ proto_arg $ machine_arg $ scale_arg $ workers_arg
      $ quick_arg $ obs_arg $ trace_out_arg)

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
      Experiments.run_suite ~quick ?jobs ~config:(config ()) ()
    in
    print_string (Experiments.render_perf_energy ~title sr);
    0
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ quick_arg $ jobs_arg)

let fig7_cmd =
  fig_cmd "fig7" "Reproduce Figure 7 (single socket)." Config.single_socket
    "Figure 7: performance and energy gains, single socket"

let fig8_cmd =
  fig_cmd "fig8" "Reproduce Figure 8 (dual socket)." Config.dual_socket
    "Figure 8: performance and energy gains, dual socket"

let analysis_cmd =
  let run quick jobs =
    let sr =
      Experiments.run_suite ~quick ?jobs
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
    Term.(const run $ quick_arg $ jobs_arg)

let fig12_cmd =
  let run quick jobs =
    let sr =
      Experiments.run_suite ~quick ?jobs
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
    Term.(const run $ quick_arg $ jobs_arg)

let scaling_cmd =
  let run quick jobs =
    let names = [ "dmm"; "msort"; "palindrome"; "quickhull" ] in
    print_string (Experiments.render_worker_scaling ~quick ?jobs ~names ());
    print_newline ();
    print_string (Experiments.render_socket_scaling ~quick ?jobs ~names ());
    0
  in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:"Worker-count and socket-count scaling studies (7.3).")
    Term.(const run $ quick_arg $ jobs_arg)

let trace_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Benchmark to trace.")
  in
  let scale_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "scale"; "s" ] ~docv:"N" ~doc:"Problem size (default: quick).")
  in
  let run name machine scale snap_in snap_out =
    let spec =
      match Warden_pbbs.Suite.find name with
      | Some s -> s
      | None -> failwith ("unknown benchmark " ^ name)
    in
    let config = machine_of machine in
    let scale =
      match scale with Some s -> s | None -> Exp.scale_of ~quick:true spec
    in
    let eng = Engine.create config ~proto:`Warden in
    apply_snapshot_in eng snap_in;
    let ok, _events, summary =
      Warden_trace.Recorder.record (fun () ->
          spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL eng)
    in
    apply_snapshot_out eng snap_out;
    Format.printf "%s (scale %d) under WARDen: %s@.%a@." name scale
      (if ok then "verified" else "FAILED VERIFICATION")
      Warden_trace.Recorder.pp_summary summary;
    (* The recorder and the live oracle share the runtime's hook slots, so
       the oracle gets its own pass; its verdict gates the exit code. *)
    let oracle_ok, oreport =
      let eng = Engine.create config ~proto:`Warden in
      let ok, report =
        Warden_trace.Oracle.with_oracle (fun () ->
            spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL eng)
      in
      match Warden_trace.Oracle.check_clean report with
      | Ok () -> (ok, report)
      | Error msg ->
          Format.printf "oracle: %s@." msg;
          (false, report)
    in
    Format.printf "oracle: %d accesses, %.1f%% under WARD, %s@."
      oreport.Warden_trace.Oracle.accesses
      (100. *. Warden_trace.Oracle.ward_fraction oreport)
      (if oracle_ok then "clean" else "VIOLATIONS");
    exit_of_bool (ok && oracle_ok)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record a benchmark's access trace and report WARD coverage and \
          the offline region classification.")
    Term.(
      const run $ name_arg $ machine_arg $ scale_arg $ snapshot_in_arg
      $ snapshot_out_arg)

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
      & opt (some string) None
      & info [ "record" ] ~docv:"NAME"
          ~doc:
            "Record benchmark $(docv)'s commit-order access stream into \
             $(i,FILE) instead of replaying.")
  in
  let proto_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "proto"; "p" ]
          ~doc:
            "Protocol: mesi, warden, msi-bus or sisd. Recording defaults to \
             warden; replay defaults to the protocol the trace was recorded \
             under. Replaying onto another protocol is the trace-driven A/B \
             comparison.")
  in
  let scale_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "scale"; "s" ] ~docv:"N"
          ~doc:"Problem size when recording (default: quick scale).")
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
  let run file record proto machine scale stats_out =
    let config = machine_of machine in
    let proto_of = proto_of_string in
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
    | Some name ->
        let name = strip_bench_prefix name in
        let spec =
          match Warden_pbbs.Suite.find name with
          | Some s -> s
          | None -> failwith ("unknown benchmark " ^ name)
        in
        let proto = proto_of (Option.value proto ~default:"warden") in
        let scale =
          match scale with
          | Some s -> s
          | None -> Exp.scale_of ~quick:true spec
        in
        let eng = Engine.create config ~proto in
        let t0 = Unix.gettimeofday () in
        let ok, stream =
          Warden_trace.Stream.record (Engine.memsys eng) (fun () ->
              spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL eng)
        in
        let host = Unix.gettimeofday () -. t0 in
        Warden_trace.Stream.save_file stream file;
        Printf.printf
          "recorded %s (scale %d) under %s: %s, %d events -> %s (%.2fs host)\n"
          name scale (proto_name proto)
          (if ok then "verified" else "FAILED VERIFICATION")
          (Warden_trace.Stream.events stream)
          file host;
        write_stats (Engine.memsys eng);
        exit_of_bool ok
    | None ->
        let stream = Warden_trace.Stream.load_file file in
        let proto =
          proto_of
            (match proto with
            | Some p -> p
            | None -> Warden_trace.Stream.proto stream)
        in
        let eng = Engine.create config ~proto in
        let t0 = Unix.gettimeofday () in
        let n = Warden_trace.Stream.replay stream (Engine.memsys eng) in
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
      const run $ file_arg $ record_arg $ proto_arg $ machine_arg $ scale_arg
      $ stats_out_arg)

(* --- check --------------------------------------------------------------- *)

let check_cmd =
  let cores_arg =
    Arg.(
      value & opt int 3
      & info [ "cores" ] ~docv:"N" ~doc:"Cores in the small model (1-8).")
  in
  let blocks_arg =
    Arg.(
      value & opt int 2
      & info [ "blocks" ] ~docv:"K" ~doc:"Cache blocks in the small model.")
  in
  let regions_arg =
    Arg.(
      value & opt int 2
      & info [ "regions" ] ~docv:"R" ~doc:"Predefined WARD region menu size.")
  in
  let depth_arg =
    Arg.(
      value & opt int 8
      & info [ "depth" ] ~docv:"D"
          ~doc:"Exhaustive-exploration depth bound (operations).")
  in
  let store_cap_arg =
    Arg.(
      value & opt int 1
      & info [ "store-cap" ] ~docv:"C"
          ~doc:
            "Stores per (core, block) during exploration; keeps the state \
             space finite.")
  in
  let fuzz_steps_arg =
    Arg.(
      value & opt int 3000
      & info [ "fuzz-steps" ] ~docv:"S"
          ~doc:"Length of the random walk (0 disables fuzzing).")
  in
  let seed_arg =
    Arg.(
      value & opt int64 0x5EEDF00DL
      & info [ "seed" ] ~docv:"X" ~doc:"Random-walk seed (deterministic).")
  in
  let proto_arg =
    Arg.(
      value & opt string "all"
      & info [ "proto"; "p" ]
          ~doc:
            "Configuration: mesi, warden, msi-bus, sisd, equiv (MESI=WARDen \
             lockstep), msi-lockstep (snooping-MSI=MESI data lockstep), or \
             all.")
  in
  let machine_arg =
    Arg.(
      value & opt string "dual"
      & info [ "machine"; "m" ]
          ~doc:
            "Small-model machine: dual (24 cores, the default), single, or \
             mesh (a 32-socket NUMA mesh with 2 cores per socket — 64 cores, \
             so the checker cores span sockets and the directory runs its \
             hierarchical two-level sharer paths).")
  in
  let run cores blocks regions depth store_cap fuzz_steps seed proto machine =
    let open Warden_check in
    let machine =
      match machine with
      | "dual" -> Warden_machine.Config.dual_socket ()
      | "single" -> Warden_machine.Config.single_socket ()
      | "mesh" ->
          Warden_machine.Config.numa_mesh ~sockets:32 ~cores_per_socket:2 ()
      | m -> failwith ("unknown check machine " ^ m)
    in
    let cfgs =
      let mk (f :
               ?cores:int ->
               ?blks:int ->
               ?regions:int ->
               ?store_cap:int ->
               ?machine:Warden_machine.Config.t ->
               unit ->
               Check.cfg) =
        f ~cores ~blks:blocks ~regions ~store_cap ~machine ()
      in
      match proto with
      | "mesi" -> [ mk Check.mesi ]
      | "warden" -> [ mk Check.warden ]
      | "msi-bus" | "msibus" | "msi_bus" -> [ mk Check.msi_bus ]
      | "sisd" -> [ mk Check.sisd ]
      | "equiv" | "equivalence" -> [ mk Check.equivalence ]
      | "msi-lockstep" | "msi_lockstep" -> [ mk Check.msi_lockstep ]
      | "all" ->
          [
            mk Check.mesi;
            mk Check.warden;
            mk Check.msi_bus;
            mk Check.sisd;
            mk Check.equivalence;
            mk Check.msi_lockstep;
          ]
      | p -> failwith ("unknown check configuration " ^ p)
    in
    let one (cfg : Check.cfg) =
      let report engine outcome =
        Format.printf "%-12s %-6s %a@." cfg.Check.name engine Check.pp_outcome
          outcome;
        match outcome with Check.Pass _ -> true | Check.Fail _ -> false
      in
      let ok_bfs = report "explore" (Check.explore cfg ~depth) in
      let ok_fuzz =
        fuzz_steps <= 0
        || report "fuzz"
             (Check.fuzz { cfg with Check.store_cap = 0 } ~steps:fuzz_steps
                ~seed)
      in
      ok_bfs && ok_fuzz
    in
    exit_of_bool (List.for_all one cfgs)
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
    exit_of_bool (Experiments.run_all ~quick ?jobs ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Reproduce every table and figure of the evaluation.")
    Term.(const run $ quick_arg $ jobs_arg)

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
