open Warden_util
module Memsys = Warden_sim.Memsys
module Config = Warden_machine.Config
module Sstats = Warden_sim.Sstats
module Pstats = Warden_proto.Pstats

(* A recorded commit-order event stream ([Memsys] trace sink): 33 bytes
   per event (kind, thread, addr, size, value), with the recording
   machine's geometry and protocol as metadata. Unlike the program
   accesses {!Oracle} sees, in initiation order, this stream is in
   memory-system commit order, so feeding it back
   through the access entry points replays the exact transition sequence
   with no program model.

   The events live in views: [len] bytes of [buf] from [off], a whole
   number of events each. A recording is its pages; a decoded envelope is
   one view into the envelope's own bytes. *)
type view = { buf : Bytes.t; off : int; len : int }

type t = {
  sockets : int;
  cores_per_socket : int;
  threads_per_core : int;
  proto : string;
  events : int;
  body : view list;
}

let magic = "WOBS"
let version = 2
let event_bytes = 33 (* u8 kind + 4 x i64: thread, addr, size, value *)
let proto t = t.proto
let events t = t.events

(* The recorder appends whole events into fixed pages: one capacity check
   and five in-place writes per event. A full page is kept as it is, so no
   recorded event is ever copied into a larger buffer. *)
let page_events = 1 lsl 15
let page_bytes = page_events * event_bytes

let record ms f =
  let full = ref [] in
  let page = ref (Bytes.create page_bytes) in
  let pos = ref 0 in
  Memsys.set_trace_sink ms
    (Some
       (fun kind thread addr size v ->
         if !pos = page_bytes then begin
           full := !page :: !full;
           page := Bytes.create page_bytes;
           pos := 0
         end;
         let b = !page and p = !pos in
         Bytes.unsafe_set b p (Char.unsafe_chr kind);
         Bytes.set_int64_le b (p + 1) (Int64.of_int thread);
         Bytes.set_int64_le b (p + 9) (Int64.of_int addr);
         Bytes.set_int64_le b (p + 17) (Int64.of_int size);
         Bytes.set_int64_le b (p + 25) v;
         pos := p + event_bytes));
  let result =
    Fun.protect ~finally:(fun () -> Memsys.set_trace_sink ms None) f
  in
  let cfg = Memsys.config ms in
  let pages =
    List.rev_map (fun buf -> { buf; off = 0; len = page_bytes }) !full
  in
  ( result,
    {
      sockets = cfg.Config.sockets;
      cores_per_socket = cfg.Config.cores_per_socket;
      threads_per_core = cfg.Config.threads_per_core;
      proto = Warden_proto.Protocol.name (Memsys.protocol ms);
      events = (List.length !full * page_events) + (!pos / event_bytes);
      body = pages @ [ { buf = !page; off = 0; len = !pos } ];
    } )

(* Unchecked little-endian word reads: a view holds whole events inside
   its buffer ([record] and [of_bytes] establish it, and a buffer never
   shrinks), so a checked read would only re-read the buffer's length. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word b p =
  let x = get64u b p in
  if Sys.big_endian then bswap64 x else x

(* Drive the memory system through one view's events. The loop decodes
   the fixed 33-byte records inline rather than through [Bin.r_int]
   (whose [int64] return boxes on every field without flambda), and skips
   decoding the value word when the event kind does not need it — loads,
   the bulk of any stream, touch only 25 of the 33 bytes. A replayed
   load's value is already in the recording; it lands in [scratch]. An
   RMW replays as "store the recorded new value". *)
let replay_view ms scratch { buf = body; off; len } =
  for e = 0 to (len / event_bytes) - 1 do
    let p = off + (e * event_bytes) in
    let kind = Char.code (Bytes.unsafe_get body p) in
    let thread = Int64.to_int (word body (p + 1)) in
    let addr = Int64.to_int (word body (p + 9)) in
    let size = Int64.to_int (word body (p + 17)) in
    if kind = Memsys.k_load then
      ignore (Memsys.access_load ms ~thread addr ~size scratch : int)
    else if kind = Memsys.k_store then
      ignore
        (Memsys.access_store ms ~thread addr ~size (word body (p + 25)) : int)
    else if kind = Memsys.k_rmw then begin
      let nv = word body (p + 25) in
      ignore (Memsys.access_rmw ms ~thread addr ~size (fun _ -> nv) scratch : int)
    end
    else if kind = Memsys.k_region_add then
      ignore (Memsys.region_add ms ~thread ~lo:addr ~hi:size : bool)
    else if kind = Memsys.k_region_remove then
      ignore (Memsys.region_remove ms ~thread ~lo:addr ~hi:size : int)
    else if kind = Memsys.k_flush then Memsys.flush_all ms
    else if kind = Memsys.k_poke then
      Memsys.poke ms addr ~size (word body (p + 25))
    else if kind = Memsys.k_acquire then
      ignore (Memsys.acquire ms ~thread : int)
    else if kind = Memsys.k_release then
      ignore (Memsys.release ms ~thread : int)
    else Bin.corrupt "Stream: unknown event kind"
  done

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
  let scratch = Bytes.create 8 in
  List.iter (replay_view ms scratch) t.body;
  t.events

(* WOBS v2: magic, version, geometry, protocol, event count, the body as
   a length-prefixed blob, then [Bin.word_checksum] of everything before
   it — header fields included. *)
let to_bytes t =
  let h = Bin.writer ~capacity:128 () in
  Bin.w_string h magic;
  Bin.w_int h version;
  Bin.w_int h t.sockets;
  Bin.w_int h t.cores_per_socket;
  Bin.w_int h t.threads_per_core;
  Bin.w_string h t.proto;
  Bin.w_int h t.events;
  Bin.w_int h (t.events * event_bytes);
  let hlen = Bin.length h in
  let covered = hlen + (t.events * event_bytes) in
  let out = Bytes.create (covered + 8) in
  Bytes.blit (Bin.contents h) 0 out 0 hlen;
  let pos = ref hlen in
  List.iter
    (fun v ->
      Bytes.blit v.buf v.off out !pos v.len;
      pos := !pos + v.len)
    t.body;
  Bytes.set_int64_le out covered
    (Int64.of_int (Bin.word_checksum out ~pos:0 ~len:covered));
  out

(* Validate the envelope where it lies and keep a view of its body: the
   checksum is the only pass over the body, and nothing is copied. *)
let of_bytes bytes =
  let r = Bin.reader bytes in
  let m = try Bin.r_string r with Bin.Corrupt _ -> "" in
  if m <> magic then Bin.corrupt "Stream: not a warden trace (bad magic)";
  let field read =
    try read r with Bin.Corrupt _ -> Bin.corrupt "Stream: truncated header"
  in
  let v = field Bin.r_int in
  if v <> version then
    Bin.corrupt
      (Printf.sprintf "Stream: trace version %d, this build reads %d" v
         version);
  let sockets = field Bin.r_int in
  let cores_per_socket = field Bin.r_int in
  let threads_per_core = field Bin.r_int in
  let proto = field Bin.r_string in
  let events = field Bin.r_int in
  let len = field Bin.r_int in
  let off = Bin.r_pos r in
  let left = Bin.r_left r in
  if len < 0 || len > left - 8 then
    Bin.corrupt
      (Printf.sprintf
         "Stream: truncated trace (%d body bytes and a checksum expected, %d \
          bytes left)"
         len left);
  if len < left - 8 then
    Bin.corrupt
      (Printf.sprintf "Stream: %d bytes after the checksum" (left - 8 - len));
  if len mod event_bytes <> 0 || events <> len / event_bytes then
    Bin.corrupt
      (Printf.sprintf "Stream: body of %d bytes is not %d events of %d bytes"
         len events event_bytes);
  let ck = Int64.to_int (Bytes.get_int64_le bytes (off + len)) in
  if ck <> Bin.word_checksum bytes ~pos:0 ~len:(off + len) then
    Bin.corrupt "Stream: checksum mismatch (corrupt trace)";
  {
    sockets;
    cores_per_socket;
    threads_per_core;
    proto;
    events;
    body = [ { buf = bytes; off; len } ];
  }

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
