(* The per-layer performance ledger: this repository's benchmark.

   [ledger.exe --workload W [--seed S] [--seconds N] [--trace 0|1]] runs
   one workload in this process: set-up (the replay workload records its
   stream), one untimed warm-up iteration, then timed iterations until N
   seconds have been measured, each protocol's engine creation and run
   preceded by a full major collection outside the timers. It checks
   every output, prints every metric by name with its unit, writes
   [<out>/ledger.json], and ends with one JSON line carrying
   [correct], [attempted], [failed] and [metrics]; it exits non-zero if
   any check failed. With [--trace 1] the time is split between that
   timed pass and a traced pass that times each layer from outside,
   around calls into its public functions, and the JSON line carries the
   per-layer metrics instead of the end-to-end ones. Without
   [--workload], every workload runs in a child process of its own, one
   after another.

   Everything runs on one host domain (jobs = 1, sim_domains = 1,
   observability off), so host time measures the simulator and not the
   host's core count. README.md lists the workloads, the metrics and the
   noise measured on a 2-core host. *)

open Warden_machine
open Warden_sim
module Pstats = Warden_proto.Pstats
module Dirstate = Warden_proto.Dirstate
module Store = Warden_mem.Store
module Addr = Warden_mem.Addr
module Spec = Warden_pbbs.Spec
module Suite = Warden_pbbs.Suite
module Exp = Warden_harness.Exp
module Stream = Warden_trace.Stream
module Serve = Warden_serve.Serve
module Hist = Warden_obs.Hist

let now () = Int64.to_int (Monotonic_clock.now ())
let protos = [ `Mesi; `Warden ]
let ratio a b = if b = 0. then 0. else a /. b
let ns_per a n = ratio (float_of_int a) (float_of_int n)
let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l

type metric = { m : string; unit_ : string; v : float }

let metric m unit_ v = { m; unit_; v }

(* The metrics BENCHMARK.json declares, which the last output line
   carries. The simulated end-to-end metrics stay out: they are exact per
   seed, but msort's speedup alone spans 1.14-1.32x across seeds, wider
   than any bound on a seed-varied run. The per-layer ones are those that
   read non-zero on every workload. *)
let declared_e2e = [ "host_s"; "host_ns_per_access"; "setup_s"; "peak_rss_mb" ]

let declared_layer =
  [
    "runtime.ns_per_access";
    "engine.create_ms";
    "memsys.hit_ns";
    "memsys.hit_ratio";
    "proto.miss_ns";
    "proto.region_ns";
    "dirstate.ns_per_op";
    "llc.ns_per_read";
    "store.ns_per_block";
    "trace.replay_ns_per_event";
    "trace.envelope_ns_per_event";
    "trace.record_overhead_pct";
    "trace.overhead_pct";
  ]
  @ List.concat_map
      (fun m -> [ m ^ ".mesi"; m ^ ".warden" ])
      [
        "memsys.l1_hits";
        "memsys.l2_hits";
        "memsys.priv_misses";
        "proto.invalidations";
        "proto.downgrades";
        "proto.fwds";
        "proto.dir_accesses";
        "proto.writebacks";
        "proto.msgs_intra";
        "energy.network_pj";
        "energy.cache_pj";
      ]
  @ [
      "proto.ward_grants.warden";
      "proto.recon_blocks.warden";
      "proto.recon_flushes.warden";
      "llc.l3_hits";
      "llc.chunks_allocated";
      "store.zero_fills";
      "store.footprint_bytes";
    ]

(* --- options ------------------------------------------------------------ *)

type opts = {
  workload : string option;
  seed : int64;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string;
}

let usage =
  "usage: ledger.exe [--workload NAME] [--seed N] [--seconds S] [--trace \
   0|1] [--smoke] [--out DIR]"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ledger: " ^ s);
      exit 2)
    fmt

let parse_opts args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: r -> go { o with workload = Some w } r
    | "--seed" :: s :: r -> (
        match Int64.of_string_opt s with
        | Some seed -> go { o with seed } r
        | None -> die "--seed wants an integer, got %S" s)
    | "--seconds" :: s :: r -> (
        match float_of_string_opt s with
        | Some x when x > 0. && Float.is_finite x -> go { o with seconds = x } r
        | _ -> die "--seconds wants a positive number, got %S" s)
    | "--trace" :: (("0" | "1") as t) :: r -> go { o with trace = t = "1" } r
    | "--smoke" :: r -> go { o with smoke = true } r
    | "--out" :: d :: r -> go { o with out = d } r
    | a :: _ -> die "unexpected argument %S\n%s" a usage
  in
  go
    {
      workload = None;
      seed = 0x5EEDF00DL;
      seconds = 15.;
      trace = false;
      smoke = false;
      out = "ledger/out";
    }
    args

(* --- checks ------------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "ledger: CHECK FAILED: %s\n%!" what
  end

(* --- bench-side spans --------------------------------------------------- *)

(* Spans of the traced pass, in preallocated arrays: the name, start, end
   and parent of each call into a layer, plus the iteration it belongs
   to. Calls too frequent to span one by one (protocol misses, region
   calls) are recorded as one aggregate span carrying the call count and
   the summed time. Nothing is recorded while [on] is false. *)
module Span = struct
  let cap = 16384
  let name = Array.make cap ""
  let start = Array.make cap 0
  let stop = Array.make cap 0
  let parent = Array.make cap (-1)
  let iter = Array.make cap 0
  let calls = Array.make cap 1
  let n = ref 0
  let cur = ref (-1)
  let on = ref false
  let iteration = ref 0

  let enter nm =
    if (not !on) || !n = cap then -1
    else begin
      let i = !n in
      incr n;
      name.(i) <- nm;
      parent.(i) <- !cur;
      iter.(i) <- !iteration;
      calls.(i) <- 1;
      cur := i;
      i
    end

  let leave i ~t0 ~t1 =
    if i >= 0 then begin
      start.(i) <- t0;
      stop.(i) <- t1;
      cur := parent.(i)
    end

  (* Placed at [t0], the start of the enclosing span, which is still
     open. *)
  let aggregate nm ~count ~ns ~t0 =
    if count > 0 then begin
      let i = enter nm in
      if i >= 0 then begin
        calls.(i) <- count;
        leave i ~t0 ~t1:(t0 + ns)
      end
    end

  (* Self time per span name: each span's duration minus the part its
     children cover. In first-seen order: (name, calls, total, self). *)
  let self_times () =
    let rows = ref [] in
    let row nm =
      match List.assoc_opt nm !rows with
      | Some r -> r
      | None ->
          let r = [| 0; 0; 0 |] in
          rows := (nm, r) :: !rows;
          r
    in
    for i = 0 to !n - 1 do
      let d = stop.(i) - start.(i) in
      let r = row name.(i) in
      r.(0) <- r.(0) + calls.(i);
      r.(1) <- r.(1) + d;
      r.(2) <- r.(2) + d;
      if parent.(i) >= 0 then begin
        let p = row name.(parent.(i)) in
        p.(2) <- p.(2) - d
      end
    done;
    List.rev_map (fun (nm, r) -> (nm, r.(0), r.(1), r.(2))) !rows

  (* Chrome trace_event "complete" events, one per line. *)
  let chrome_events ~pid ~workload =
    let t_base = if !n > 0 then start.(0) else 0 in
    List.init !n (fun i ->
        Printf.sprintf
          "{\"name\":\"%s\",\"cat\":\"ledger\",\"ph\":\"X\",\"pid\":%d,\
           \"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"workload\":\"%s\",\
           \"iteration\":%d,\"parent\":\"%s\",\"calls\":%d}}"
          name.(i) pid
          (float_of_int (start.(i) - t_base) /. 1e3)
          (float_of_int (stop.(i) - start.(i)) /. 1e3)
          workload iter.(i)
          (if parent.(i) >= 0 then name.(parent.(i)) else "")
          calls.(i))
end

(* Time [f] (host ns), recording it as a span when tracing is on. *)
let timed nm f =
  let i = Span.enter nm in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  Span.leave i ~t0 ~t1;
  (v, t1 - t0)

(* --- host memory speed -------------------------------------------------- *)

(* The simulator spends its time in random accesses to tens of MB of
   cache, directory and heap state. On a shared host that slows by up to
   half while other tenants load the shared L3 and memory, in phases from
   under a second to minutes long, so raw medians shift between runs by
   more than any useful bound. A walk of random read-modify-writes over a
   32 MiB buffer, with a chain of shifts between them, slows with it.
   On a 2-vCPU host it tracked the simulator best among the walks tried:
   timed right before and after each run, it cut the spread of 12 s
   medians from 12-32% to 2-9%. A pure memory walk did worse, and a
   dependent pointer chase did not track at all. [scale] converts a time
   to a fixed walk speed, [ref_ns_per_step], within the range seen on
   that host (60-170 ns). *)
module Walk = struct
  let words = 1 lsl 22
  let mib = words * 8 / 1048576
  let steps = 100_000
  let ref_ns_per_step = 100.
  let buf = lazy Bigarray.(Array1.init int c_layout words Fun.id)

  let ns () =
    let b = Lazy.force buf in
    let j = ref 0x2545F491 and h = ref 1 in
    let t0 = now () in
    for _ = 1 to steps do
      j := ((!j * 0x5DEECE66D) + 11) land 0x3FFF_FFFF_FFFF;
      let k = (!j lsr 12) land (words - 1) in
      for _ = 1 to 24 do
        h := !h lxor (!h lsl 13);
        h := !h lxor (!h lsr 7)
      done;
      Bigarray.Array1.unsafe_set b k
        (Bigarray.Array1.unsafe_get b k + (!h land 1))
    done;
    now () - t0

  (* The ns per step of walks that took [w0] and [w1] ns, run right
     before and right after a timed call. *)
  let per_step w0 w1 = float_of_int (w0 + w1) /. float_of_int (2 * steps)

  (* Host ns [t], measured beside walks at [per_step], at the reference
     walk speed. *)
  let scale ~per_step t = float_of_int t *. ref_ns_per_step /. per_step
end

(* --- statistics over samples -------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it: the
   (n-10)th smallest of n samples, about percentile 100 (n-10)/n. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 10 then None else Some (100 * (n - 10) / n, a.(n - 11))

(* --- captured commit streams -------------------------------------------- *)

(* A commit stream captured through [Memsys.set_trace_sink]: 32 bytes per
   event (kind and thread, address, size, value) in one flat buffer. *)
module Events = struct
  type t = { mutable n : int; mutable buf : Bytes.t }

  let width = 32

  let add t kind thread addr size v =
    let p = width * t.n in
    if p + width > Bytes.length t.buf then begin
      let nb = Bytes.create (2 * Bytes.length t.buf) in
      Bytes.blit t.buf 0 nb 0 p;
      t.buf <- nb
    end;
    Bytes.set_int64_le t.buf p (Int64.of_int (kind lor ((thread + 1) lsl 8)));
    Bytes.set_int64_le t.buf (p + 8) (Int64.of_int addr);
    Bytes.set_int64_le t.buf (p + 16) (Int64.of_int size);
    Bytes.set_int64_le t.buf (p + 24) v;
    t.n <- t.n + 1

  let capture ms f =
    let t = { n = 0; buf = Bytes.create (width * 65536) } in
    Memsys.set_trace_sink ms (Some (add t));
    let v =
      Fun.protect ~finally:(fun () -> Memsys.set_trace_sink ms None) f
    in
    (v, t)
end

module Ivec = struct
  type t = { mutable n : int; mutable a : int array }

  let create () = { n = 0; a = Array.make 4096 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let na = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 na 0 t.n;
      t.a <- na
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1
end

(* --- the split replay: hit path apart from miss path ---------------------- *)

type split = {
  mutable hits : int;
  mutable misses : int;
  mutable regions : int;
  mutable miss_ns : int;
  mutable region_ns : int;
  mutable other_ns : int;  (** Flushes, pokes, fences. *)
  mutable total_ns : int;
  miss_blk : Ivec.t;
  miss_core : Ivec.t;
}

let hit_ns d = d.total_ns - d.miss_ns - d.region_ns - d.other_ns

(* Replay a captured stream the way the engine drives the memory system:
   the allocation-free fast path first, the scheduled entry point when it
   declines. Each fallback and each non-access call is timed on its own,
   so what remains is the hit path; region time stays out of it (on a
   WARDen run it would more than double the hit cost). *)
let split_replay cfg ms (ev : Events.t) =
  let d =
    {
      hits = 0;
      misses = 0;
      regions = 0;
      miss_ns = 0;
      region_ns = 0;
      other_ns = 0;
      total_ns = 0;
      miss_blk = Ivec.create ();
      miss_core = Ivec.create ();
    }
  in
  let b = ev.Events.buf in
  let value p = Bytes.get_int64_le b (p + 24) in
  let t_start = now () in
  for i = 0 to ev.Events.n - 1 do
    let p = Events.width * i in
    let meta = Int64.to_int (Bytes.get_int64_le b p) in
    let kind = meta land 0xFF and thread = (meta lsr 8) - 1 in
    let addr = Int64.to_int (Bytes.get_int64_le b (p + 8)) in
    let size = Int64.to_int (Bytes.get_int64_le b (p + 16)) in
    if kind = Memsys.k_load || kind = Memsys.k_store || kind = Memsys.k_rmw
    then begin
      let fast =
        if kind = Memsys.k_load then Memsys.try_fast_load ms ~thread addr ~size
        else if kind = Memsys.k_store then
          Memsys.try_fast_store ms ~thread addr ~size (value p)
        else
          let v = value p in
          Memsys.try_fast_rmw ms ~thread addr ~size (fun _ -> v)
      in
      if fast >= 0 then d.hits <- d.hits + 1
      else begin
        let t0 = now () in
        (if kind = Memsys.k_load then ignore (Memsys.load ms ~thread addr ~size)
         else if kind = Memsys.k_store then
           ignore (Memsys.store ms ~thread addr ~size (value p))
         else
           let v = value p in
           ignore (Memsys.rmw ms ~thread addr ~size (fun _ -> v)));
        d.miss_ns <- d.miss_ns + (now () - t0);
        d.misses <- d.misses + 1;
        Ivec.push d.miss_blk (Addr.block_of addr);
        Ivec.push d.miss_core (Config.core_of_thread cfg thread)
      end
    end
    else begin
      let region =
        kind = Memsys.k_region_add || kind = Memsys.k_region_remove
      in
      let t0 = now () in
      if kind = Memsys.k_region_add then
        ignore (Memsys.region_add ms ~thread ~lo:addr ~hi:size : bool)
      else if kind = Memsys.k_region_remove then
        ignore (Memsys.region_remove ms ~thread ~lo:addr ~hi:size : int)
      else if kind = Memsys.k_flush then Memsys.flush_all ms
      else if kind = Memsys.k_poke then Memsys.poke ms addr ~size (value p)
      else if kind = Memsys.k_acquire then
        ignore (Memsys.acquire ms ~thread : int)
      else if kind = Memsys.k_release then
        ignore (Memsys.release ms ~thread : int)
      else failwith "ledger: unknown event kind in a captured stream";
      let dt = now () - t0 in
      if region then begin
        d.regions <- d.regions + 1;
        d.region_ns <- d.region_ns + dt
      end
      else d.other_ns <- d.other_ns + dt
    end
  done;
  d.total_ns <- now () - t_start;
  d

(* Host ns per operation of the directory, the LLC and the backing store,
   from feeding a run's miss-block sequence into fresh instances: one
   [Dirstate.entry] + [sharer_add] per miss; one [Llc.read] at the
   block's home socket, over a store holding the blocks the run had
   written; one [Store.read_block]. *)
let layer_replays cfg ~live_store d =
  let n = d.misses in
  let blk = d.miss_blk.Ivec.a and core = d.miss_core.Ivec.a in
  let ds =
    Dirstate.create ~sockets:cfg.Config.sockets
      ~cores_per_socket:cfg.Config.cores_per_socket ()
  in
  let (), dir_ns =
    timed "dirstate.replay" (fun () ->
        for i = 0 to n - 1 do
          Dirstate.sharer_add ds (Dirstate.entry ds blk.(i)) core.(i)
        done)
  in
  let st = Store.create () in
  for i = 0 to n - 1 do
    let b = blk.(i) in
    if Store.materialized live_store b && not (Store.materialized st b) then
      Store.write_block_masked st b (Store.read_block live_store b)
        ~mask:(-1L)
  done;
  let llc = Llc.create cfg st in
  let (), llc_ns =
    timed "llc.replay" (fun () ->
        for i = 0 to n - 1 do
          let b = blk.(i) in
          ignore (Llc.read llc ~socket:(Config.home_socket cfg b) ~blk:b)
        done)
  in
  let (), store_ns =
    timed "store.replay" (fun () ->
        for i = 0 to n - 1 do
          ignore (Store.read_block st blk.(i) : Bytes.t)
        done)
  in
  [
    metric "dirstate.ns_per_op" "ns" (ns_per dir_ns n);
    metric "llc.ns_per_read" "ns" (ns_per llc_ns n);
    metric "store.ns_per_block" "ns" (ns_per store_ns n);
  ]

(* --- workloads ---------------------------------------------------------- *)

type program = Kernel of Spec.t * int | Served of Serve.params

type workload = {
  name : string;
  why : string;
  machine : unit -> Config.t;
  program : smoke:bool -> seed:int64 -> program;
  replay : bool;
      (** Time the replay of the program's recorded WARDen stream, not the
          program itself. *)
}

let kernel name ~scale ~smoke_scale ~smoke ~seed:_ =
  match Suite.find name with
  | Some spec -> Kernel (spec, if smoke then smoke_scale else scale)
  | None -> invalid_arg ("ledger: no kernel " ^ name)

let serve ~smoke ~seed =
  let requests = if smoke then 5_000 else 50_000 in
  Served { Serve.default with requests; seed }

let workloads =
  [
    {
      name = "msort-dual";
      why =
        "Fig 8's headline winner: downgrade-dominated traffic and join-time \
         reconciliation; host time splits between the program model and \
         memsys+protocol";
      machine = (fun () -> Config.dual_socket ());
      program = kernel "msort" ~scale:24_000 ~smoke_scale:6_000;
      replay = false;
    };
    {
      name = "dmm-disagg";
      why =
        "Fig 12's machine: 98% of accesses hit in L1, so the program model \
         dominates host time; carries the negative network-energy anomaly";
      machine = Config.disaggregated;
      program = kernel "dmm" ~scale:64 ~smoke_scale:32;
      replay = false;
    };
    {
      name = "fib-single";
      why =
        "WARDen-neutral control (Fig 7): scheduler true-sharing on the steal \
         deques, so a change that helps the winners but hurts this kernel \
         shows";
      machine = (fun () -> Config.single_socket ());
      program = kernel "fib" ~scale:23 ~smoke_scale:16;
      replay = false;
    };
    {
      name = "replay-msort";
      why =
        "msort-dual's recorded WARDen stream replayed under WARDen and MESI: \
         no program model and no engine, so a runtime change should not move \
         it";
      machine = (fun () -> Config.dual_socket ());
      program = kernel "msort" ~scale:24_000 ~smoke_scale:6_000;
      replay = true;
    };
    {
      name = "serve-zipf";
      why =
        "Open-loop Zipf KV mix (85/10/5, theta 0.99): writes beside reads on \
         hot keys make a third of accesses miss, invalidation-dominated";
      machine = (fun () -> Config.dual_socket ());
      program = serve;
      replay = false;
    };
  ]

type ctx = {
  w : workload;
  cfg : Config.t;
  seed : int64;
  prog : program;
  smoke : bool;
}

let exec ctx eng =
  match ctx.prog with
  | Kernel (spec, scale) -> (spec.Spec.run ~scale ~seed:ctx.seed eng, None)
  | Served params ->
      let r = Serve.run ~params eng in
      (r.Serve.verified, Some r)

let run_span ctx =
  match ctx.prog with Kernel _ -> "spec.run" | Served _ -> "serve.run"

let describe ctx =
  let m = ctx.cfg.Config.name in
  match ctx.prog with
  | Kernel (spec, scale) when ctx.w.replay ->
      Printf.sprintf "replay of %s scale %d's WARDen stream on %s"
        spec.Spec.name scale m
  | Kernel (spec, scale) ->
      Printf.sprintf "%s scale %d on %s" spec.Spec.name scale m
  | Served p -> Printf.sprintf "serve %d requests on %s" p.Serve.requests m

(* --- one simulated run, summarized -------------------------------------- *)

type run = {
  proto : string;
  ok : bool;
  cycles : int;
  accesses : int;
  sb_stalls : int;
  l1_hits : int;
  l2_hits : int;
  priv_misses : int;
  ps : Pstats.t;
  network_pj : float;
  cache_pj : float;
  dram_pj : float;
  chunks : int;
  footprint : int;
  stats : string;  (** [Stream.stats_text]: what a replay reproduces. *)
  fingerprint : string;  (** Every simulated result of the run. *)
  served : Serve.result option;
}

let summarize ctx proto ok served ms =
  let ss = Memsys.sstats ms and en = Memsys.energy ms in
  let stats = Stream.stats_text ms in
  let serve_json =
    match (ctx.prog, served) with
    | Served p, Some r -> Serve.json_summary p r
    | _ -> ""
  in
  {
    proto = Exp.proto_name proto;
    ok;
    cycles = ss.Sstats.cycles;
    accesses = ss.Sstats.loads + ss.Sstats.stores + ss.Sstats.rmws;
    sb_stalls = ss.Sstats.sb_stalls;
    l1_hits = ss.Sstats.l1_hits;
    l2_hits = ss.Sstats.l2_hits;
    priv_misses = ss.Sstats.priv_misses;
    ps = Pstats.copy (Memsys.pstats ms);
    network_pj = Energy.network_pj en;
    cache_pj = Energy.cache_pj en;
    dram_pj = Energy.dram_pj en;
    chunks = fst (Llc.chunks_stats (Memsys.llc ms));
    footprint = Memsys.footprint_bytes ms;
    stats;
    fingerprint =
      Printf.sprintf "%scycles %d\ninstructions %d\nsb_stalls %d\n%s" stats
        ss.Sstats.cycles ss.Sstats.instructions ss.Sstats.sb_stalls serve_json;
    served;
  }

(* The first result seen per protocol is the reference every later run
   of the same protocol must reproduce exactly. *)
let reference = Hashtbl.create 2

let check_run ctx ~what r =
  check
    (Printf.sprintf "%s %s %s: output verified" ctx.w.name r.proto what)
    r.ok;
  match Hashtbl.find_opt reference r.proto with
  | None -> Hashtbl.add reference r.proto r.fingerprint
  | Some fp ->
      check
        (Printf.sprintf "%s %s %s: simulated results equal the first run's"
           ctx.w.name r.proto what)
        (String.equal fp r.fingerprint)

let check_replay ctx ~rec_stats r =
  check
    (Printf.sprintf "%s %s: replay reproduces the recording's stats_text"
       ctx.w.name r.proto)
    (String.equal rec_stats r.stats)

(* --- set-up ------------------------------------------------------------- *)

(* The replay workload's set-up: record the program's WARDen commit stream
   and round-trip it through its versioned envelope. Returns the stream,
   the recording's stats and the time [Stream.record] took. *)
let record_stream ctx =
  let eng = Engine.create ctx.cfg ~proto:`Warden in
  let ms = Engine.memsys eng in
  let ((ok, _), s), record_ns =
    timed "trace.record" (fun () -> Stream.record ms (fun () -> exec ctx eng))
  in
  check (ctx.w.name ^ ": recording run verified") ok;
  let s = Stream.of_bytes (Stream.to_bytes s) in
  (s, Stream.stats_text ms, record_ns)

type recording = {
  stream : Stream.t;
  rec_stats : string;
  records_ns : float list;  (** Each set-up's [Stream.record] call. *)
}

(* Record [reps] times, each timed at the reference walk speed, so that
   the recording's time is a median like every other timing. Only the
   last stream is kept, so that earlier ones do not raise the peak RSS.
   Returns the recording and the normalized times. *)
let setup_replay ctx ~reps =
  let last = ref None and stats = ref [] and records = ref [] in
  let sample () =
    last := None;
    Gc.full_major ();
    let w0 = Walk.ns () in
    let (s, st, rns), t = timed "setup" (fun () -> record_stream ctx) in
    let per_step = Walk.per_step w0 (Walk.ns ()) in
    last := Some s;
    stats := st :: !stats;
    records := float_of_int rns :: !records;
    Walk.scale ~per_step t
  in
  let setup_ns = List.init reps (fun _ -> sample ()) in
  let rec_stats = List.hd !stats in
  List.iter
    (fun st ->
      check
        (ctx.w.name ^ ": every recording has the same stats")
        (String.equal rec_stats st))
    !stats;
  ({ stream = Option.get !last; rec_stats; records_ns = !records }, setup_ns)

(* --- the timed pass ----------------------------------------------------- *)

(* One protocol's share of an iteration: its run's raw host ns; at the
   reference walk speed, its run's and its engine (or memsys) creation's
   ns; and the walk's ns per step around the run. *)
type timing = { raw : int; norm : float; create : float; per_step : float }

type sample = { timings : timing list; runs : run list }

(* [create ()], then [run] on what it made, each timed between two walks.
   Creation is timed here rather than in a set-up phase: in a fresh
   process it is dominated by page faults on new memory, whose cost the
   walk does not track (the medians of 25 set-up creations moved by up to
   49% between sets of runs), while here the memory of the previous run
   is reused. *)
let create_and_run ~create ~run =
  let w0 = Walk.ns () in
  let x, c = create () in
  let w1 = Walk.ns () in
  let v, r = run x in
  let per_step = Walk.per_step w1 (Walk.ns ()) in
  ( x,
    v,
    {
      raw = r;
      norm = Walk.scale ~per_step r;
      create = Walk.scale ~per_step:(Walk.per_step w0 w1) c;
      per_step;
    } )

let iteration ctx recording =
  let one proto =
    Gc.full_major ();
    match recording with
    | None ->
        let eng, (ok, served), t =
          create_and_run
            ~create:(fun () ->
              timed "engine.create" (fun () -> Engine.create ctx.cfg ~proto))
            ~run:(fun eng -> timed (run_span ctx) (fun () -> exec ctx eng))
        in
        (t, summarize ctx proto ok served (Engine.memsys eng))
    | Some r ->
        let ms, _, t =
          create_and_run
            ~create:(fun () ->
              timed "memsys.create" (fun () -> Memsys.create ctx.cfg ~proto))
            ~run:(fun ms ->
              timed "trace.replay" (fun () -> Stream.replay r.stream ms))
        in
        (t, summarize ctx proto true None ms)
  in
  let per = List.map one protos in
  let runs = List.map snd per in
  List.iter (check_run ctx ~what:"timed") runs;
  (match (runs, recording) with
  | [ { served = Some a; _ }; { served = Some b; _ } ], _ ->
      check
        (ctx.w.name ^ ": MESI and WARDen serve equal results")
        (Serve.equal_results a b)
  | [ _; w ], Some r -> check_replay ctx ~rec_stats:r.rec_stats w
  | _ -> ());
  { timings = List.map fst per; runs }

(* One untimed warm-up iteration, then iterations until [budget_ns] of
   them have run (at least two; exactly one in smoke mode). *)
let timed_pass ctx ~budget_ns recording =
  if not ctx.smoke then ignore (iteration ctx recording : sample);
  let t_start = now () in
  let rec go acc =
    let enough =
      if ctx.smoke then acc <> []
      else List.length acc >= 2 && now () - t_start >= budget_ns
    in
    if enough then List.rev acc else go (iteration ctx recording :: acc)
  in
  go []

(* The process's VmHWM, less the walk's buffer, which stays resident. *)
let peak_rss_mb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | l -> (
              match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
              | Some kb -> Some ((float_of_int kb /. 1024.) -. float Walk.mib)
              | None -> scan ())
        in
        let r = scan () in
        close_in ic;
        r
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.

(* --- metrics ------------------------------------------------------------ *)

let inv_down (r : run) = r.ps.Pstats.invalidations + r.ps.Pstats.downgrades

(* The paper's metrics, MESI against WARDen. Replay has no cycles, so it
   reports only its A/B traffic and energy. *)
let sim_metrics ctx = function
  | [ m; w ] ->
      let cut a b = 100. *. ratio (a -. b) a in
      let i = float_of_int in
      (if ctx.w.replay then []
       else [ metric "sim_speedup" "x" (ratio (i m.cycles) (i w.cycles)) ])
      @ [
          metric "invdown_cut_pct" "%"
            (cut (i (inv_down m)) (i (inv_down w)));
          metric "net_energy_saving_pct" "%" (cut m.network_pj w.network_pj);
        ]
      @ (match w.served with
        | Some r ->
            let p q = Hist.percentile r.Serve.lat ~cls:Serve.cls_all q in
            [
              metric "sim_p50_cycles" "cycles" (p 50.);
              metric "sim_p999_cycles" "cycles" (p 99.9);
              metric "sim_rps" "1/s" r.Serve.rps;
            ]
        | None -> [])
  | _ -> []

let per_proto nm unit_ f runs =
  List.map
    (fun r -> metric (Printf.sprintf "%s.%s" nm r.proto) unit_ (f r))
    runs

(* Simulated counts behind the per-layer timings. The unsuffixed LLC and
   store counts are the WARDen run's. Serve latencies exist only for
   served runs. *)
let count_metrics runs =
  let i = float_of_int in
  let pc nm f = per_proto ("proto." ^ nm) "count" (fun r -> i (f r.ps)) runs in
  let w = List.nth runs 1 in
  let ps = w.ps in
  let lat (q, qn) (cls, cn) =
    List.filter_map
      (fun r ->
        Option.map
          (fun s ->
            metric
              (Printf.sprintf "serve.lat_%s.%s.%s" qn cn r.proto)
              "cycles"
              (Hist.percentile s.Serve.lat ~cls q))
          r.served)
      runs
  in
  per_proto "engine.sb_stalls" "count" (fun r -> i r.sb_stalls) runs
  @ per_proto "memsys.l1_hits" "count" (fun r -> i r.l1_hits) runs
  @ per_proto "memsys.l2_hits" "count" (fun r -> i r.l2_hits) runs
  @ per_proto "memsys.priv_misses" "count" (fun r -> i r.priv_misses) runs
  @ pc "invalidations" (fun p -> p.Pstats.invalidations)
  @ pc "downgrades" (fun p -> p.Pstats.downgrades)
  @ pc "fwds" (fun p -> p.Pstats.fwds)
  @ pc "dir_accesses" (fun p -> p.Pstats.dir_accesses)
  @ pc "ward_grants" (fun p -> p.Pstats.ward_grants)
  @ pc "recon_blocks" (fun p -> p.Pstats.recon_blocks)
  @ pc "recon_flushes" (fun p -> p.Pstats.recon_flushes)
  @ pc "writebacks" (fun p -> p.Pstats.writebacks)
  @ pc "msgs_inter" (fun p ->
        p.Pstats.msgs_ctl_inter + p.Pstats.msgs_data_inter)
  @ pc "msgs_intra" (fun p ->
        p.Pstats.msgs_ctl_intra + p.Pstats.msgs_data_intra)
  @ [
      metric "llc.l3_hits" "count" (i ps.Pstats.l3_hits);
      metric "llc.l3_misses" "count" (i ps.Pstats.l3_misses);
      metric "llc.chunks_allocated" "count" (i w.chunks);
      metric "store.dram_reads" "count" (i ps.Pstats.dram_reads);
      metric "store.dram_writes" "count" (i ps.Pstats.dram_writes);
      metric "store.zero_fills" "count" (i ps.Pstats.zero_fills);
      metric "store.footprint_bytes" "bytes" (i w.footprint);
    ]
  @ per_proto "energy.network_pj" "pJ" (fun r -> r.network_pj) runs
  @ per_proto "energy.cache_pj" "pJ" (fun r -> r.cache_pj) runs
  @ per_proto "energy.dram_pj" "pJ" (fun r -> r.dram_pj) runs
  @ List.concat_map
      (fun q ->
        List.concat_map (lat q) [ (0, "read"); (1, "write"); (2, "scan") ])
      [ (50., "p50"); (99.9, "p999") ]

(* --- the traced pass ---------------------------------------------------- *)

(* One protocol's share of a traced iteration. *)
type traced = {
  tr : run;
  d : split;
  layers : metric list;  (** Directory/LLC/store timings (WARDen only). *)
  create_ns : int;  (** [Engine.create]; 0 if none was timed. *)
  traced_ns : int;  (** This share of the raw host time, under tracing. *)
  base_ns : float;  (** The untraced run [record_ns] wraps. *)
  record_ns : int;  (** [Stream.record] around that run; 0 if none. *)
  envelope_ns : int;
  enveloped : int;  (** Events in the enveloped stream. *)
  replay_ns : int;
  events : int;  (** Events replayed by [Stream.replay]. *)
}

(* Split-replay a captured stream, check it reproduces [stats], and
   time the directory/LLC/store layers on the WARDen miss sequence. *)
let split_and_layers ctx proto ev ~stats =
  let ms = Memsys.create ctx.cfg ~proto in
  let d, _ =
    timed "memsys.split" (fun () ->
        let t0 = now () in
        let d = split_replay ctx.cfg ms ev in
        Span.aggregate "proto.miss" ~count:d.misses ~ns:d.miss_ns ~t0;
        Span.aggregate "proto.region" ~count:d.regions ~ns:d.region_ns ~t0;
        d)
  in
  check
    (Printf.sprintf "%s %s: split replay reproduces stats_text" ctx.w.name
       (Exp.proto_name proto))
    (String.equal stats (Stream.stats_text ms));
  let layers =
    if proto = `Warden then
      layer_replays ctx.cfg ~live_store:(Llc.store (Memsys.llc ms)) d
    else []
  in
  (d, layers)

let envelope s = Stream.of_bytes (Stream.to_bytes s)

(* A live workload, per protocol: the run under a capture sink (its time
   is the traced host time), the split and layer replays of that
   capture, then a second run under [Stream.record], the envelope round
   trip and [Stream.replay]. *)
let traced_live ctx ~base_ns proto =
  Gc.full_major ();
  let eng, create_ns =
    timed "engine.create" (fun () -> Engine.create ctx.cfg ~proto)
  in
  let ms = Engine.memsys eng in
  let ((ok, served), ev), traced_ns =
    timed (run_span ctx) (fun () ->
        Events.capture ms (fun () -> exec ctx eng))
  in
  let tr = summarize ctx proto ok served ms in
  check_run ctx ~what:"captured" tr;
  let d, layers = split_and_layers ctx proto ev ~stats:tr.stats in
  Gc.full_major ();
  let eng = Engine.create ctx.cfg ~proto in
  let ms = Engine.memsys eng in
  let ((ok, served), s), record_ns =
    timed "trace.record" (fun () -> Stream.record ms (fun () -> exec ctx eng))
  in
  check_run ctx ~what:"recorded" (summarize ctx proto ok served ms);
  let s, envelope_ns = timed "trace.envelope" (fun () -> envelope s) in
  let ms = Memsys.create ctx.cfg ~proto in
  let events, replay_ns = timed "trace.replay" (fun () -> Stream.replay s ms) in
  check_replay ctx ~rec_stats:tr.stats (summarize ctx proto true None ms);
  {
    tr;
    d;
    layers;
    create_ns;
    traced_ns;
    base_ns;
    record_ns;
    envelope_ns;
    enveloped = events;
    replay_ns;
    events;
  }

(* The replay workload has no program run per iteration: the set-up's
   stream replays under each protocol, and the split replay uses a capture
   of the same program taken once before the pass. The program's WARDen
   engine creation and plain run, timed once there too, give the
   program-model and engine metrics for the stream being replayed. *)
type replay_prep = {
  ev : Events.t;
  plain_ns : float;  (** The program without any sink. *)
  prep_create_ns : int;
  prep_envelope_ns : int;
}

let prepare_replay ctx (r : recording) =
  Gc.full_major ();
  let eng, create =
    timed "engine.create" (fun () -> Engine.create ctx.cfg ~proto:`Warden)
  in
  let (ok, _), plain = timed "spec.run" (fun () -> exec ctx eng) in
  check (ctx.w.name ^ ": plain run verified") ok;
  let eng = Engine.create ctx.cfg ~proto:`Warden in
  let ms = Engine.memsys eng in
  let (ok, _), ev = Events.capture ms (fun () -> exec ctx eng) in
  check (ctx.w.name ^ ": captured run verified") ok;
  check
    (ctx.w.name ^ ": captured run reproduces the recording's stats_text")
    (String.equal r.rec_stats (Stream.stats_text ms));
  let _, env = timed "trace.envelope" (fun () -> envelope r.stream) in
  {
    ev;
    plain_ns = float_of_int plain;
    prep_create_ns = create;
    prep_envelope_ns = env;
  }

let traced_replay ctx (r : recording) prep proto =
  Gc.full_major ();
  let ms, _ =
    timed "memsys.create" (fun () -> Memsys.create ctx.cfg ~proto)
  in
  let events, replay_ns =
    timed "trace.replay" (fun () -> Stream.replay r.stream ms)
  in
  let tr = summarize ctx proto true None ms in
  check_run ctx ~what:"traced" tr;
  if proto = `Warden then check_replay ctx ~rec_stats:r.rec_stats tr;
  let d, layers = split_and_layers ctx proto prep.ev ~stats:tr.stats in
  let warden = proto = `Warden in
  {
    tr;
    d;
    layers;
    create_ns = (if warden then prep.prep_create_ns else 0);
    traced_ns = replay_ns;
    base_ns = (if warden then prep.plain_ns else 0.);
    record_ns = (if warden then int_of_float (median r.records_ns) else 0);
    envelope_ns = (if warden then prep.prep_envelope_ns else 0);
    enveloped = (if warden then events else 0);
    replay_ns;
    events;
  }

let layer_metrics (ts : traced list) =
  let total f = sum f ts and i = float_of_int in
  let hits = total (fun t -> t.d.hits) in
  let misses = total (fun t -> t.d.misses) in
  let recorded = List.filter (fun t -> t.record_ns > 0) ts in
  let record_base = sumf (fun t -> t.base_ns) recorded in
  let created = List.filter (fun t -> t.create_ns > 0) ts in
  (* Program-model cost: the untraced live run minus the replay of its own
     stream, per access. *)
  let based = List.filter (fun t -> t.base_ns > 0.) ts in
  let runtime =
    ratio
      (sumf (fun t -> t.base_ns -. i t.replay_ns) based)
      (i (sum (fun t -> t.tr.accesses) based))
  in
  [
    metric "runtime.ns_per_access" "ns" runtime;
    metric "engine.create_ms" "ms"
      (i (sum (fun t -> t.create_ns) created)
      /. 1e6
      /. i (List.length created));
    metric "memsys.hit_ns" "ns" (ns_per (total (fun t -> hit_ns t.d)) hits);
    metric "memsys.hit_ratio" "1" (ns_per hits (hits + misses));
    metric "proto.miss_ns" "ns" (ns_per (total (fun t -> t.d.miss_ns)) misses);
    metric "proto.region_ns" "ns"
      (ns_per (total (fun t -> t.d.region_ns)) (total (fun t -> t.d.regions)));
    metric "trace.replay_ns_per_event" "ns"
      (ns_per (total (fun t -> t.replay_ns)) (total (fun t -> t.events)));
    metric "trace.envelope_ns_per_event" "ns"
      (ns_per (total (fun t -> t.envelope_ns)) (total (fun t -> t.enveloped)));
    metric "trace.record_overhead_pct" "%"
      (100.
      *. ratio (i (sum (fun t -> t.record_ns) recorded) -. record_base)
           record_base);
  ]
  @ List.concat_map (fun t -> t.layers) ts
  @ count_metrics (List.map (fun t -> t.tr) ts)

(* Per-name medians across the traced iterations (counts repeat exactly,
   so their median is the value). *)
let medians = function
  | [] -> []
  | first :: _ as iters ->
      let values nm =
        List.concat_map
          (List.filter_map (fun m -> if m.m = nm then Some m.v else None))
          iters
      in
      List.map (fun m0 -> { m0 with v = median (values m0.m) }) first

(* Iterations until [budget_ns] has run (one in smoke mode). Returns the
   per-layer metrics, the traced host_s median and the iteration count. *)
let traced_pass ctx ~budget_ns ~timed_samples recording =
  let base_of proto =
    let k = if proto = `Mesi then 0 else 1 in
    let raw s = float_of_int (List.nth s.timings k).raw in
    median (List.map raw timed_samples)
  in
  let prep = Option.map (fun r -> (r, prepare_replay ctx r)) recording in
  let one proto =
    match prep with
    | None -> traced_live ctx ~base_ns:(base_of proto) proto
    | Some (r, p) -> traced_replay ctx r p proto
  in
  Span.on := true;
  let t_start = now () in
  let rec go acc k =
    if acc <> [] && (ctx.smoke || now () - t_start >= budget_ns) then
      List.rev acc
    else begin
      Span.iteration := k;
      let ts, _ = timed "iteration" (fun () -> List.map one protos) in
      go (ts :: acc) (k + 1)
    end
  in
  let iters = go [] 1 in
  Span.on := false;
  let traced_s ts = float_of_int (sum (fun t -> t.traced_ns) ts) /. 1e9 in
  ( medians (List.map layer_metrics iters),
    median (List.map traced_s iters),
    List.length iters )

(* --- output ------------------------------------------------------------- *)

let num v = if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

let metrics_json ms =
  let one m =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m (num m.v)
      m.unit_
  in
  "{" ^ String.concat ", " (List.map one ms) ^ "}"

let print_metrics title ms =
  Printf.printf "  %s\n" title;
  List.iter
    (fun m -> Printf.printf "    %-34s %16s %s\n" m.m (num m.v) m.unit_)
    ms

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let git_rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let rev = try input_line ic with End_of_file -> "" in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when rev <> "" -> rev
        | _ -> "unknown")

(* [ledger.json] holds one workload object per line, [ledger.trace.json]
   one trace event per line, between a header line and a closing line, so
   the parent process can merge its children's files line by line. *)
let ledger_file = ("ledger.json", "{\"workloads\": [")

let trace_file =
  ("ledger.trace.json", "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")

let write_items dir (file, header) items =
  write_file
    (Filename.concat dir file)
    (header ^ "\n" ^ String.concat ",\n" items ^ "\n]}\n")

let read_items path =
  match read_lines path with
  | _ :: rest ->
      List.filter_map
        (fun l ->
          let n = String.length l in
          if n = 0 || l = "]}" then None
          else if l.[n - 1] = ',' then Some (String.sub l 0 (n - 1))
          else Some l)
        rest
  | [] -> []

(* --- one workload, in this process -------------------------------------- *)

let print_self_times () =
  let self = Span.self_times () in
  let total = sum (fun (_, _, _, s) -> s) self in
  Printf.printf "  %-22s %10s %12s %12s %7s\n" "span (self time)" "calls"
    "total ms" "self ms" "self%";
  List.iter
    (fun (nm, c, t, s) ->
      Printf.printf "  %-22s %10d %12.3f %12.3f %6.1f%%\n" nm c
        (float_of_int t /. 1e6) (float_of_int s /. 1e6)
        (100. *. ns_per s total))
    self

let run_workload (opts : opts) w ~pid =
  let cfg =
    { (w.machine ()) with Config.sim_domains = 1; obs_level = Config.Obs_off }
  in
  let prog = w.program ~smoke:opts.smoke ~seed:opts.seed in
  let ctx = { w; cfg; seed = opts.seed; prog; smoke = opts.smoke } in
  let seconds = if opts.smoke then 0. else opts.seconds in
  let share = if opts.trace then seconds /. 2. else seconds in
  let share_ns = int_of_float (share *. 1e9) in
  Printf.printf "== %s: %s (seed %Ld)\n%!" w.name (describe ctx) opts.seed;
  let recording, recording_ns =
    if w.replay then
      let r, ns = setup_replay ctx ~reps:(if opts.smoke then 1 else 3) in
      (Some r, median ns)
    else (None, 0.)
  in
  let samples = timed_pass ctx ~budget_ns:share_ns recording in
  let rss = peak_rss_mb () in
  let first = List.hd samples in
  let per_sample f = List.map (fun s -> f s.timings) samples in
  let host = per_sample (sumf (fun t -> t.norm /. 1e9)) in
  let creates = per_sample (sumf (fun t -> t.create)) in
  let raw_s = median (per_sample (sumf (fun t -> float_of_int t.raw /. 1e9))) in
  let walk =
    median (List.concat (per_sample (List.map (fun t -> t.per_step))))
  in
  let accesses = float_of_int (sum (fun r -> r.accesses) first.runs) in
  let host_s = median host in
  let e2e =
    [
      metric "host_s" "s" host_s;
      metric "host_ns_per_access" "ns" (host_s *. 1e9 /. accesses);
      metric "setup_s" "s" ((median creates +. recording_ns) /. 1e9);
      metric "peak_rss_mb" "MB" rss;
    ]
    @ sim_metrics ctx first.runs
  in
  let n = List.length samples in
  Printf.printf
    "  timed pass: %d iterations after %s; host_s median %s s%s; raw median \
     %s s, walk %s ns/step\n"
    n
    (if opts.smoke then "no warm-up" else "1 warm-up")
    (num host_s)
    (match tail host with
    | Some (p, v) ->
        Printf.sprintf ", p%d %s s (10 samples beyond it)" p (num v)
    | None -> " (no percentile has 10 samples beyond it)")
    (num raw_s) (num walk);
  print_metrics "end-to-end:" e2e;
  let layer, traced_iters =
    if not opts.trace then ([], 0)
    else begin
      let layer, traced_host, k =
        traced_pass ctx ~budget_ns:share_ns ~timed_samples:samples recording
      in
      let overhead = 100. *. ratio (traced_host -. raw_s) raw_s in
      Printf.printf
        "  traced pass: %d iterations; traced raw host time %s s, %s%% \
         against the timed pass\n"
        k (num traced_host) (num overhead);
      let layer = layer @ [ metric "trace.overhead_pct" "%" overhead ] in
      print_metrics "per-layer:" layer;
      print_self_times ();
      (layer, k)
    end
  in
  let reported, declared =
    if opts.trace then (layer, declared_layer) else (e2e, declared_e2e)
  in
  let result =
    List.filter_map
      (fun nm ->
        let m = List.find_opt (fun m -> m.m = nm) reported in
        check (Printf.sprintf "%s: reports %s" w.name nm) (m <> None);
        m)
      declared
  in
  Printf.printf "  checks: %d attempted, %d failed (fail_frac %s)\n" !attempted
    !failed
    (num (ns_per !failed !attempted));
  let tail_pct, tail_v =
    match tail host with
    | Some (p, v) -> (string_of_int p, num v)
    | None -> ("null", "null")
  in
  let obj =
    Printf.sprintf
      "{\"workload\": \"%s\", \"why\": \"%s\", \"provenance\": {\"nproc\": \
       %d, \"ocaml\": \"%s\", \"git_rev\": \"%s\", \"seed\": %Ld, \"jobs\": \
       1, \"sim_domains\": 1, \"obs\": \"%s\", \"smoke\": %b, \"seconds\": \
       %s, \"iterations\": {\"warmup\": %d, \"timed\": %d, \"traced\": %d}}, \
       \"host_s\": {\"median\": %s, \"tail_pct\": %s, \"tail\": %s, \"n\": \
       %d, \"raw_median\": %s, \"walk_ns_per_step\": %s}, \"checks\": \
       {\"attempted\": %d, \"failed\": %d}, \"end_to_end\": %s, \
       \"per_layer\": %s}"
      w.name w.why
      (Domain.recommended_domain_count ())
      Sys.ocaml_version (git_rev ()) opts.seed
      (Config.obs_level_to_string cfg.Config.obs_level)
      opts.smoke (num seconds)
      (if opts.smoke then 0 else 1)
      n traced_iters (num host_s) tail_pct tail_v n (num raw_s) (num walk)
      !attempted !failed (metrics_json e2e) (metrics_json layer)
  in
  write_items opts.out ledger_file [ obj ];
  if opts.trace then
    write_items opts.out trace_file (Span.chrome_events ~pid ~workload:w.name);
  result

(* --- entry points ------------------------------------------------------- *)

let single (opts : opts) name =
  let indexed = List.mapi (fun i w -> (i, w)) workloads in
  match List.find_opt (fun (_, w) -> w.name = name) indexed with
  | None ->
      die "no workload %S (have: %s)" name
        (String.concat ", " (List.map (fun w -> w.name) workloads))
  | Some (pid, w) ->
      let metrics = run_workload opts w ~pid in
      Printf.printf
        "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
         %s}\n\
         %!"
        (!failed = 0) !attempted !failed (metrics_json metrics);
      exit (if !failed = 0 then 0 else 1)

(* Every workload, each in a child process of its own (so peak RSS and
   heap state are the workload's), one after another. Each child writes
   its files under [<out>/<workload>]; they are merged into [<out>]. *)
let all (opts : opts) =
  let exe = Sys.executable_name in
  let flags =
    [ "--seed"; Int64.to_string opts.seed ]
    @ [ "--seconds"; Printf.sprintf "%.17g" opts.seconds ]
    @ (if opts.trace then [ "--trace"; "1" ] else [])
    @ if opts.smoke then [ "--smoke" ] else []
  in
  let dir w = Filename.concat opts.out w.name in
  let part w (file, _) = Filename.concat (dir w) file in
  let merge file =
    write_items opts.out file
      (List.concat_map
         (fun w ->
           let p = part w file in
           if Sys.file_exists p then read_items p else [])
         workloads)
  in
  let failures =
    List.filter
      (fun w ->
        List.iter
          (fun f -> if Sys.file_exists (part w f) then Sys.remove (part w f))
          [ ledger_file; trace_file ];
        let args = exe :: "--workload" :: w.name :: "--out" :: dir w :: flags in
        let pid =
          Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout
            Unix.stderr
        in
        snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
      workloads
  in
  merge ledger_file;
  if opts.trace then merge trace_file;
  Printf.printf "ledger: %d workloads, %s; results in %s\n"
    (List.length workloads)
    (match failures with
    | [] -> "all checks passed"
    | l -> "FAILED: " ^ String.concat ", " (List.map (fun w -> w.name) l))
    (Filename.concat opts.out "ledger.json");
  exit (if failures = [] then 0 else 1)

let () =
  let opts = parse_opts (List.tl (Array.to_list Sys.argv)) in
  match opts.workload with Some name -> single opts name | None -> all opts
