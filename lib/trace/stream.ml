open Warden_util
module Memsys = Warden_sim.Memsys
module Config = Warden_machine.Config
module Sstats = Warden_sim.Sstats
module Pstats = Warden_proto.Pstats

(* A recorded commit-order event stream ([Memsys] trace sink), flat in one
   byte buffer: 33 bytes per event (kind, thread, addr, size, value), with
   the recording machine's geometry and protocol as metadata. Unlike
   {!Recorder} — which keeps initiation-order program events for offline
   analysis — this stream is in memory-system commit order, so feeding it
   back through the access entry points replays the exact transition
   sequence with no program model. *)
type t = {
  sockets : int;
  cores_per_socket : int;
  threads_per_core : int;
  proto : string;
  events : int;
  body : Bytes.t;
}

let magic = "WOBS"
let version = 1
let event_bytes = 33 (* u8 kind + 4 x i64: thread, addr, size, value *)
let proto t = t.proto
let events t = t.events

let record ms f =
  let w = Bin.writer ~capacity:(1 lsl 20) () in
  let count = ref 0 in
  Memsys.set_trace_sink ms
    (Some
       (fun kind thread addr size v ->
         Bin.w_u8 w kind;
         Bin.w_int w thread;
         Bin.w_int w addr;
         Bin.w_int w size;
         Bin.w_i64 w v;
         incr count));
  let result =
    Fun.protect ~finally:(fun () -> Memsys.set_trace_sink ms None) f
  in
  let cfg = Memsys.config ms in
  ( result,
    {
      sockets = cfg.Config.sockets;
      cores_per_socket = cfg.Config.cores_per_socket;
      threads_per_core = cfg.Config.threads_per_core;
      proto = Warden_proto.Protocol.name (Memsys.protocol ms);
      events = !count;
      body = Bin.contents w;
    } )

(* Drive the memory system through the recorded commit sequence. Each
   access takes the same transition as the live run ({!Memsys.access_load}
   and its siblings: the hit prefix, then the miss path) — by induction
   the target's state matches the recording run's state at the same
   stream position (same protocol), so each event takes the same
   transition with the same accounting, and the final memory-system
   statistics are bit-identical to the recording run's. Replaying onto
   the {e other} protocol is the A/B use: the stream drives its
   transitions instead, and the stats diff is the protocols' delta on
   this workload. *)
let replay t ms =
  let cfg = Memsys.config ms in
  if
    cfg.Config.sockets <> t.sockets
    || cfg.Config.cores_per_socket <> t.cores_per_socket
    || cfg.Config.threads_per_core <> t.threads_per_core
  then Bin.corrupt "Stream: machine geometry mismatch";
  (* The hot loop decodes the fixed 33-byte records inline with one
     bounds check per event, rather than through [Bin.r_int] (whose
     [int64] return boxes on every field without flambda), and skips
     decoding the value word when the event kind does not need it —
     loads, the bulk of any stream, touch only 25 of the 33 bytes. A
     replayed load's value is already in the recording; it lands in
     [scratch]. An RMW replays as "store the recorded new value". *)
  let body = t.body in
  let len = Bytes.length body in
  let scratch = Bytes.create 8 in
  let pos = ref 0 in
  for _ = 1 to t.events do
    let p = !pos in
    if p + event_bytes > len then Bin.corrupt "Stream: truncated event";
    pos := p + event_bytes;
    let kind = Char.code (Bytes.unsafe_get body p) in
    let thread = Int64.to_int (Bytes.get_int64_le body (p + 1)) in
    let addr = Int64.to_int (Bytes.get_int64_le body (p + 9)) in
    let size = Int64.to_int (Bytes.get_int64_le body (p + 17)) in
    if kind = Memsys.k_load then
      ignore (Memsys.access_load ms ~thread addr ~size scratch : int)
    else if kind = Memsys.k_store then
      ignore
        (Memsys.access_store ms ~thread addr ~size
           (Bytes.get_int64_le body (p + 25))
          : int)
    else if kind = Memsys.k_rmw then begin
      let nv = Bytes.get_int64_le body (p + 25) in
      ignore (Memsys.access_rmw ms ~thread addr ~size (fun _ -> nv) scratch : int)
    end
    else if kind = Memsys.k_region_add then
      ignore (Memsys.region_add ms ~thread ~lo:addr ~hi:size : bool)
    else if kind = Memsys.k_region_remove then
      ignore (Memsys.region_remove ms ~thread ~lo:addr ~hi:size : int)
    else if kind = Memsys.k_flush then Memsys.flush_all ms
    else if kind = Memsys.k_poke then
      Memsys.poke ms addr ~size (Bytes.get_int64_le body (p + 25))
    else if kind = Memsys.k_acquire then
      ignore (Memsys.acquire ms ~thread : int)
    else if kind = Memsys.k_release then
      ignore (Memsys.release ms ~thread : int)
    else Bin.corrupt "Stream: unknown event kind"
  done;
  t.events

let to_bytes t =
  let out = Bin.writer ~capacity:(Bytes.length t.body + 128) () in
  Bin.w_string out magic;
  Bin.w_int out version;
  Bin.w_int out t.sockets;
  Bin.w_int out t.cores_per_socket;
  Bin.w_int out t.threads_per_core;
  Bin.w_string out t.proto;
  Bin.w_int out t.events;
  Bin.w_bytes out t.body;
  Bin.w_int out (Bin.checksum t.body ~pos:0 ~len:(Bytes.length t.body));
  Bin.contents out

let of_bytes bytes =
  let r = Bin.reader bytes in
  let m = try Bin.r_string r with Bin.Corrupt _ -> "" in
  if m <> magic then Bin.corrupt "Stream: not a warden trace (bad magic)";
  let v = Bin.r_int r in
  if v <> version then
    Bin.corrupt
      (Printf.sprintf "Stream: trace version %d, this build reads %d" v
         version);
  let sockets = Bin.r_int r in
  let cores_per_socket = Bin.r_int r in
  let threads_per_core = Bin.r_int r in
  let proto = Bin.r_string r in
  let events = Bin.r_int r in
  let body = Bin.r_bytes r in
  let ck = Bin.r_int r in
  if ck <> Bin.checksum body ~pos:0 ~len:(Bytes.length body) then
    Bin.corrupt "Stream: checksum mismatch (truncated or corrupt trace)";
  { sockets; cores_per_socket; threads_per_core; proto; events; body }

let save_file t path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_bytes oc (to_bytes t))

let load_file path =
  let ic = open_in_bin path in
  let bytes =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let len = in_channel_length ic in
        let b = Bytes.create len in
        really_input ic b 0 len;
        b)
  in
  of_bytes bytes

(* Canonical memory-system statistics dump, for byte-comparing a replay
   against its recording run (CI). Engine-owned values — instructions,
   cycles, store-buffer stalls, core energy — are excluded: a replay has
   no program model, so only memory-system transitions reproduce. *)
let stats_text ms =
  let ss = Memsys.sstats ms in
  let ps = Memsys.pstats ms in
  let en = Memsys.energy ms in
  let b = Buffer.create 512 in
  let line k v = Buffer.add_string b (Printf.sprintf "%s %d\n" k v) in
  line "loads" ss.Sstats.loads;
  line "stores" ss.Sstats.stores;
  line "rmws" ss.Sstats.rmws;
  line "l1_hits" ss.Sstats.l1_hits;
  line "l2_hits" ss.Sstats.l2_hits;
  line "priv_misses" ss.Sstats.priv_misses;
  line "dir_accesses" ps.Pstats.dir_accesses;
  line "invalidations" ps.Pstats.invalidations;
  line "downgrades" ps.Pstats.downgrades;
  line "fwds" ps.Pstats.fwds;
  line "msgs_ctl_intra" ps.Pstats.msgs_ctl_intra;
  line "msgs_ctl_inter" ps.Pstats.msgs_ctl_inter;
  line "msgs_data_intra" ps.Pstats.msgs_data_intra;
  line "msgs_data_inter" ps.Pstats.msgs_data_inter;
  line "writebacks" ps.Pstats.writebacks;
  line "l3_hits" ps.Pstats.l3_hits;
  line "l3_misses" ps.Pstats.l3_misses;
  line "dram_reads" ps.Pstats.dram_reads;
  line "dram_writes" ps.Pstats.dram_writes;
  line "zero_fills" ps.Pstats.zero_fills;
  line "ward_grants" ps.Pstats.ward_grants;
  line "ward_adds" ps.Pstats.ward_adds;
  line "ward_removes" ps.Pstats.ward_removes;
  line "ward_rejects" ps.Pstats.ward_rejects;
  line "recon_blocks" ps.Pstats.recon_blocks;
  line "recon_flushes" ps.Pstats.recon_flushes;
  line "bus_txns" ps.Pstats.bus_txns;
  line "bus_arb_cycles" ps.Pstats.bus_arb_cycles;
  line "bus_busy_cycles" ps.Pstats.bus_busy_cycles;
  line "snoops" ps.Pstats.snoops;
  line "c2c_transfers" ps.Pstats.c2c_transfers;
  line "self_invs" ps.Pstats.self_invs;
  line "self_downs" ps.Pstats.self_downs;
  line "acquires" ps.Pstats.acquires;
  line "releases" ps.Pstats.releases;
  Buffer.add_string b
    (Printf.sprintf "cache_pj %.0f\ndram_pj %.0f\nnetwork_pj %.0f\n"
       (Warden_machine.Energy.cache_pj en)
       (Warden_machine.Energy.dram_pj en)
       (Warden_machine.Energy.network_pj en));
  Buffer.contents b
