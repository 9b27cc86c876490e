open Warden_util
open Warden_machine
open Warden_proto
open Warden_sim
open Warden_runtime
open Warden_obs

type params = {
  requests : int;
  keys : int;
  theta : float;
  read_frac : float;
  scan_frac : float;
  scan_len : int;
  batch : int;
  grain : int;
  shards : int;
  seed : int64;
}

let default =
  {
    requests = 1_000_000;
    keys = 65_536;
    theta = 0.99;
    read_frac = 0.85;
    scan_frac = 0.05;
    scan_len = 16;
    batch = 8_192;
    grain = 64;
    shards = 8;
    seed = 0x5EED_CAFEL;
  }

type result = {
  proto : string;
  verified : bool;
  violations : int;
  requests : int;
  reads : int;
  writes : int;
  scans : int;
  distinct_written : int;
  checksum : int64;
  dynamic_sum : int64;
  cycles : int;
  instructions : int;
  invalidations : int;
  downgrades : int;
  msgs : int;
  energy_pj : float;
  rps : float;
  lat : Hist.t;
}

let cls_all = 3

let mix64 v =
  Int64.mul
    (Int64.logxor v (Int64.shift_right_logical v 29))
    0x9E3779B97F4A7C15L

(* Digest layout: one small Sarray per task, allocated in the task's own
   heap — fresh WARD pages under WARDen, downgrade fodder under MESI when
   the parent reads them at the join. Four cache lines: accounting words
   plus a 24-bucket log2 latency histogram, merged up the tree the way a
   real serving tier aggregates tail latency across workers. *)
let d_sum = 0 (* mix of every value reads and scans returned *)
let d_reqs = 1 (* requests this subtree served *)
let d_writes = 2 (* writes this subtree performed *)
let d_maxlat = 3 (* worst sojourn this subtree saw *)
let d_kind0 = 4 (* per-kind request counts, indexed by kind code (3) *)
let d_violations = 7 (* reads that returned neither generation *)
let d_hist0 = 8 (* log2 sojourn histogram, saturating at the top *)
let d_hist_buckets = 24
let digest_len = d_hist0 + d_hist_buckets

let run ?(params = default) ?workers eng =
  let p = params in
  if p.requests <= 0 then invalid_arg "Serve.run: requests must be positive";
  if p.batch <= 0 || p.grain <= 0 then
    invalid_arg "Serve.run: batch and grain must be positive";
  if p.scan_len <= 0 then invalid_arg "Serve.run: scan_len must be positive";
  let w =
    Workload.make ~keys:p.keys ~theta:p.theta ~read_frac:p.read_frac
      ~scan_frac:p.scan_frac ~seed:p.seed
  in
  let cfg = Engine.config eng in
  let ms = Engine.memsys eng in
  let proto = Protocol.name (Memsys.protocol ms) in
  let lat = Hist.create ~classes:4 in
  (* Host-side accumulators, updated in the engine's deterministic global
     event order, so the histogram is bit-identical run to run like
     everything else. *)
  let violations = ref 0 in
  let dynamic_sum = ref 0L in
  let served = ref 0 in
  let writes_done = ref 0 in
  let sim_violations = ref 0 in
  let sim_kinds = Array.make 3 0 in
  let sim_hist = Array.make d_hist_buckets 0 in
  (* The request buffer is reused batch after batch: host memory for
     generation stays O(batch) no matter how many requests run. *)
  let buf = Array.make (min p.batch p.requests) 0 in
  let kv, _rstats =
    Par.run ?workers eng (fun () ->
        let kv = Kv.create ~keys:p.keys ~shards:p.shards in
        let serve_one admit r =
          let key = Workload.key_of r in
          let kind = Workload.kind_of r in
          let code = Workload.kind_code kind in
          Par.tick 2;
          (* decode + dispatch *)
          let contrib, violated =
            match kind with
            | Workload.Read ->
                let v = Kv.read kv key in
                let bad =
                  v <> Workload.preload_value key
                  && v <> Workload.written_value key
                in
                if bad then incr violations;
                (mix64 v, bad)
            | Workload.Write ->
                Kv.write kv key (Workload.written_value key);
                (0L, false)
            | Workload.Scan -> (mix64 (Kv.scan kv key ~len:p.scan_len), false)
          in
          Kv.bump kv code;
          let sojourn = Engine.Ops.now () - admit in
          Hist.add lat ~cls:code sojourn;
          Hist.add lat ~cls:cls_all sojourn;
          (contrib, code, sojourn, violated)
        in
        let rec go admit lo hi =
          if hi - lo <= p.grain then begin
            let digest = Sarray.create ~len:digest_len ~elt_bytes:8 in
            let sum = ref 0L and maxlat = ref 0 and viol = ref 0 in
            let kinds = Array.make 3 0 in
            let hbuckets = Array.make d_hist_buckets 0 in
            for k = lo to hi - 1 do
              let contrib, code, sojourn, violated =
                serve_one admit buf.(k)
              in
              sum := Int64.add !sum contrib;
              kinds.(code) <- kinds.(code) + 1;
              if violated then incr viol;
              if sojourn > !maxlat then maxlat := sojourn;
              let hb = min (Hist.bucket_of sojourn) (d_hist_buckets - 1) in
              hbuckets.(hb) <- hbuckets.(hb) + 1
            done;
            Sarray.set digest d_sum !sum;
            Sarray.set_i digest d_reqs (hi - lo);
            Sarray.set_i digest d_writes kinds.(1);
            Sarray.set_i digest d_maxlat !maxlat;
            for c = 0 to 2 do
              Sarray.set_i digest (d_kind0 + c) kinds.(c)
            done;
            Sarray.set_i digest d_violations !viol;
            for hb = 0 to d_hist_buckets - 1 do
              Sarray.set_i digest (d_hist0 + hb) hbuckets.(hb)
            done;
            digest
          end
          else begin
            let mid = lo + ((hi - lo) / 2) in
            let l, r =
              Par.par2 (fun () -> go admit lo mid) (fun () -> go admit mid hi)
            in
            (* Rejoined: merge the children's digests — histogram
               included — into a fresh one in this task's (leaf-again)
               heap, the way a serving tier folds per-worker latency
               histograms up its aggregation tree. *)
            let digest = Sarray.create ~len:digest_len ~elt_bytes:8 in
            Sarray.set digest d_sum
              (Int64.add (Sarray.get l d_sum) (Sarray.get r d_sum));
            Sarray.set_i digest d_maxlat
              (max (Sarray.get_i l d_maxlat) (Sarray.get_i r d_maxlat));
            for f = 0 to digest_len - 1 do
              if f <> d_sum && f <> d_maxlat then
                Sarray.set_i digest f (Sarray.get_i l f + Sarray.get_i r f)
            done;
            digest
          end
        in
        let nbatches = (p.requests + p.batch - 1) / p.batch in
        for b = 0 to nbatches - 1 do
          let lo = b * p.batch in
          let n = min p.batch (p.requests - lo) in
          Workload.fill w buf ~lo ~n;
          let admit = Engine.Ops.now () in
          let digest = go admit 0 n in
          dynamic_sum := Int64.add !dynamic_sum (Sarray.get digest d_sum);
          served := !served + Sarray.get_i digest d_reqs;
          writes_done := !writes_done + Sarray.get_i digest d_writes;
          sim_violations := !sim_violations + Sarray.get_i digest d_violations;
          for c = 0 to 2 do
            sim_kinds.(c) <- sim_kinds.(c) + Sarray.get_i digest (d_kind0 + c)
          done;
          for hb = 0 to d_hist_buckets - 1 do
            sim_hist.(hb) <- sim_hist.(hb) + Sarray.get_i digest (d_hist0 + hb)
          done
        done;
        kv)
  in
  Memsys.flush_all ms;
  (* Schedule-independent verification: recompute the write-key set
     host-side and require the flushed table to be exactly the image
     those idempotent writes produce, whatever order they ran in. *)
  let ws = Workload.write_set w ~n:p.requests in
  let reads, writes, scans = Workload.kind_counts w ~n:p.requests in
  let image_ok = ref true in
  let checksum = ref 0L in
  for k = 0 to p.keys - 1 do
    let v = Kv.host_value ms kv k in
    let expect =
      if Bitset.mem ws k then Workload.written_value k
      else Workload.preload_value k
    in
    if v <> expect then image_ok := false;
    checksum := Int64.add !checksum (mix64 v)
  done;
  let meta_ok =
    Kv.host_meta ms kv (Workload.kind_code Workload.Read) = reads
    && Kv.host_meta ms kv (Workload.kind_code Workload.Write) = writes
    && Kv.host_meta ms kv (Workload.kind_code Workload.Scan) = scans
  in
  (* The digest tree carried its own latency histogram through simulated
     memory; it must agree bucket-for-bucket with the host-side one (the
     digest's top bucket absorbs the host histogram's tail). *)
  let hist_ok = ref true in
  for hb = 0 to d_hist_buckets - 1 do
    let host =
      if hb < d_hist_buckets - 1 then Hist.get lat ~cls:cls_all ~bucket:hb
      else begin
        let tail = ref 0 in
        for b = hb to Hist.nbuckets - 1 do
          tail := !tail + Hist.get lat ~cls:cls_all ~bucket:b
        done;
        !tail
      end
    in
    if sim_hist.(hb) <> host then hist_ok := false
  done;
  let verified =
    !image_ok && meta_ok && !violations = 0 && !served = p.requests
    && !writes_done = writes
    && !sim_violations = !violations
    && sim_kinds.(0) = reads
    && sim_kinds.(1) = writes
    && sim_kinds.(2) = scans
    && !hist_ok
    && Hist.count lat ~cls:cls_all = p.requests
  in
  let ss = Memsys.sstats ms in
  let ps = Memsys.pstats ms in
  let cycles = ss.Sstats.cycles in
  let rps =
    if cycles = 0 then 0.
    else
      float_of_int p.requests
      /. (float_of_int cycles /. (cfg.Config.freq_ghz *. 1e9))
  in
  {
    proto;
    verified;
    violations = !violations;
    requests = p.requests;
    reads;
    writes;
    scans;
    distinct_written = Bitset.cardinal ws;
    checksum = !checksum;
    dynamic_sum = !dynamic_sum;
    cycles;
    instructions = ss.Sstats.instructions;
    invalidations = ps.Pstats.invalidations;
    downgrades = ps.Pstats.downgrades;
    msgs = Pstats.total_msgs ps;
    energy_pj = Energy.total_pj (Memsys.energy ms);
    rps;
    lat;
  }

let run_proto ?params ?workers ~machine ~proto () =
  let eng = Engine.create machine ~proto in
  run ?params ?workers eng

let equal_results a b =
  a.verified = b.verified
  && a.requests = b.requests
  && a.reads = b.reads
  && a.writes = b.writes
  && a.scans = b.scans
  && a.distinct_written = b.distinct_written
  && a.checksum = b.checksum

let percentile_points = [ ("p50", 50.); ("p95", 95.); ("p99", 99.); ("p99.9", 99.9) ]

let percentiles r =
  List.map
    (fun (nm, p) -> (nm, Hist.percentile r.lat ~cls:cls_all p))
    percentile_points

let cls_name = function
  | 0 -> "read"
  | 1 -> "write"
  | 2 -> "scan"
  | _ -> "all"

let summary r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "serve [%s]: %d requests in %d cycles (%.2f Mreq/s simulated)%s\n"
       r.proto r.requests r.cycles (r.rps /. 1e6)
       (if r.verified then "" else "  ** VERIFICATION FAILED **"));
  Buffer.add_string buf
    (Printf.sprintf
       "  mix: %d reads / %d writes / %d scans; %d distinct keys written\n"
       r.reads r.writes r.scans r.distinct_written);
  Buffer.add_string buf
    (Printf.sprintf "  traffic: %d invalidations, %d downgrades, %d msgs; %.1f uJ\n"
       r.invalidations r.downgrades r.msgs (r.energy_pj /. 1e6));
  for cls = 0 to cls_all do
    if Hist.count r.lat ~cls > 0 then
      Buffer.add_string buf
        (Printf.sprintf
           "  %-5s latency (cycles): p50 %.0f  p95 %.0f  p99 %.0f  p99.9 %.0f  mean %.0f  (%d reqs)\n"
           (cls_name cls)
           (Hist.percentile r.lat ~cls 50.)
           (Hist.percentile r.lat ~cls 95.)
           (Hist.percentile r.lat ~cls 99.)
           (Hist.percentile r.lat ~cls 99.9)
           (Hist.mean r.lat ~cls) (Hist.count r.lat ~cls))
  done;
  Buffer.contents buf

let json_summary p r =
  let lat =
    List.map
      (fun (nm, q) ->
        ( "lat_" ^ String.concat "" (String.split_on_char '.' nm),
          Json.float ~decimals:3 (Hist.percentile r.lat ~cls:cls_all q) ))
      percentile_points
  in
  Json.obj
    ([
       ("workload", Json.string "serve");
       ("proto", Json.string r.proto);
       ("requests", Json.int r.requests);
       ("keys", Json.int p.keys);
       ("theta", Json.float p.theta);
       ("read_frac", Json.float p.read_frac);
       ("scan_frac", Json.float p.scan_frac);
       ("shards", Json.int p.shards);
       ("verified", Json.bool r.verified);
       ("violations", Json.int r.violations);
       ("reads", Json.int r.reads);
       ("writes", Json.int r.writes);
       ("scans", Json.int r.scans);
       ("distinct_written", Json.int r.distinct_written);
       ("checksum", Json.string (Printf.sprintf "%Lx" r.checksum));
       ("cycles", Json.int r.cycles);
       ("instructions", Json.int r.instructions);
       ("invalidations", Json.int r.invalidations);
       ("downgrades", Json.int r.downgrades);
       ("msgs", Json.int r.msgs);
       ("energy_pj", Json.float ~decimals:1 r.energy_pj);
       ("rps", Json.float ~decimals:1 r.rps);
     ]
    @ lat
    @ [
        ("lat_mean", Json.float ~decimals:3 (Hist.mean r.lat ~cls:cls_all));
        ("lat_count", Json.int (Hist.count r.lat ~cls:cls_all));
      ])

let curve ?params ~machine ~proto cores =
  List.map
    (fun c ->
      let r = run_proto ?params ~machine:(Config.with_cores machine c) ~proto () in
      (c, r.rps))
    cores
