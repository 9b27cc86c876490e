open Warden_util
module Memsys = Warden_sim.Memsys
module Config = Warden_machine.Config
module Sstats = Warden_sim.Sstats
module Pstats = Warden_proto.Pstats

(* A recorded commit-order event stream ([Memsys] trace sink), with the
   recording machine's geometry and protocol as metadata. Unlike the
   program accesses {!Oracle} sees, in initiation order, this stream is
   in memory-system commit order, so feeding it back through the access
   entry points replays the exact transition sequence with no program
   model.

   WOBS v3 records are little-endian 64-bit words. Word 0 packs the
   event:

     bits  0-3   kind, a [Memsys.k_*] code (15 escapes a wide record)
     bits  4-5   log2 of the access size (loads, stores, RMWs, pokes)
     bits  6-21  thread + 1 (0 is the host's -1)
     bits 22-61  address

   Stores, RMWs and pokes add one word, the value; region events add
   one, the region's [hi]. Loads, flushes and fences add nothing: replay
   never reads a load's value, which the recording run already produced.
   An event whose fields do not fit — an address at or above 2^40, a
   thread above 65534, an access size other than 1, 2, 4 or 8, or a
   nonzero size on a flush or fence — is written wide: word 0 is the
   escape kind 15 alone, then five full words (kind, thread, address,
   size, value). So every event the sink can report has a record.

   The records live in views: [len] bytes of [buf] from [off], a whole
   number of records each. A recording is its pages; a decoded envelope
   is one view into the envelope's own bytes. *)
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
let version = 3
let proto t = t.proto
let events t = t.events
let escape = 15
let wide_bytes = 48

(* Record length by kind nibble; 0 for a nibble no record carries. *)
let record_bytes =
  let a = Array.make 16 0 in
  List.iter (fun k -> a.(k) <- 8) Memsys.[ k_load; k_flush; k_acquire; k_release ];
  List.iter
    (fun k -> a.(k) <- 16)
    Memsys.[ k_store; k_rmw; k_poke; k_region_add; k_region_remove ];
  a.(escape) <- wide_bytes;
  a

let[@inline] is_region kind =
  kind = Memsys.k_region_add || kind = Memsys.k_region_remove

(* Word 0 of the packed record of an event, or -1 if it needs a wide
   one. *)
let[@inline] pack kind thread addr size =
  let code =
    if
      kind = Memsys.k_load || kind = Memsys.k_store || kind = Memsys.k_rmw
      || kind = Memsys.k_poke
    then
      if size = 8 then 3
      else if size = 4 then 2
      else if size = 2 then 1
      else if size = 1 then 0
      else -1
    else if is_region kind || size = 0 then 0
    else -1
  in
  let t1 = thread + 1 in
  if code < 0 || t1 land lnot 0xFFFF <> 0 || addr lsr 40 <> 0 then -1
  else kind lor (code lsl 4) lor (t1 lsl 6) lor (addr lsl 22)

(* Unchecked little-endian word access: a view holds whole records
   inside its buffer ([record] and [of_bytes] establish it, and a buffer
   never shrinks), and the recorder checks a page's room once per event,
   so a checked access would only re-read the buffer's length. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word b p =
  let x = get64u b p in
  if Sys.big_endian then bswap64 x else x

let[@inline] set_word b p x = set64u b p (if Sys.big_endian then bswap64 x else x)
let[@inline] int_at b p = Int64.to_int (word b p)
let[@inline] set_int b p x = set_word b p (Int64.of_int x)

(* The recorder appends whole records into fixed pages: one room check
   per event, for the widest record. A page is kept as it is when the
   next record might not fit, so no recorded event is ever copied into a
   larger buffer. A page holds at most 2^15 records. *)
let page_bytes = 8 lsl 15

let record ms f =
  let full = ref [] in
  let page = ref (Bytes.create page_bytes) in
  let pos = ref 0 in
  let count = ref 0 in
  Memsys.set_trace_sink ms
    (Some
       (fun kind thread addr size v ->
         if !pos > page_bytes - wide_bytes then begin
           full := { buf = !page; off = 0; len = !pos } :: !full;
           page := Bytes.create page_bytes;
           pos := 0
         end;
         let b = !page and p = !pos in
         let w = pack kind thread addr size in
         if w >= 0 then begin
           set_int b p w;
           let n = record_bytes.(kind) in
           if n > 8 then
             if is_region kind then set_int b (p + 8) size
             else set_word b (p + 8) v;
           pos := p + n
         end
         else begin
           set_int b p escape;
           set_int b (p + 8) kind;
           set_int b (p + 16) thread;
           set_int b (p + 24) addr;
           set_int b (p + 32) size;
           set_word b (p + 40) v;
           pos := p + wide_bytes
         end;
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
      body = List.rev ({ buf = !page; off = 0; len = !pos } :: !full);
    } )

(* One decoded event: a wide record's, or a packed one other than a
   load. Its value word, if it has one, lies at [vp]. A replayed load's
   value lands in [scratch]. An RMW replays as "store the recorded new
   value". *)
let apply ms scratch ~kind ~thread ~addr ~size body vp =
  if kind = Memsys.k_load then
    ignore (Memsys.access_load ms ~thread addr ~size scratch : int)
  else if kind = Memsys.k_store then
    ignore (Memsys.access_store ms ~thread addr ~size (word body vp) : int)
  else if kind = Memsys.k_rmw then begin
    let nv = word body vp in
    ignore (Memsys.access_rmw ms ~thread addr ~size (fun _ -> nv) scratch : int)
  end
  else if kind = Memsys.k_region_add then
    ignore (Memsys.region_add ms ~thread ~lo:addr ~hi:size : bool)
  else if kind = Memsys.k_region_remove then
    ignore (Memsys.region_remove ms ~thread ~lo:addr ~hi:size : int)
  else if kind = Memsys.k_flush then Memsys.flush_all ms
  else if kind = Memsys.k_poke then Memsys.poke ms addr ~size (word body vp)
  else if kind = Memsys.k_acquire then ignore (Memsys.acquire ms ~thread : int)
  else (* [k_release]: the body walk admits no other kind *)
    ignore (Memsys.release ms ~thread : int)

(* Drive the memory system through one view's records: a cursor that
   reads word 0 and decodes it with shifts. A load, the bulk of any
   stream, is that one word. *)
let replay_view ms scratch { buf = body; off; len } =
  let stop = off + len in
  let p = ref off in
  while !p < stop do
    let at = !p in
    let w = int_at body at in
    let kind = w land 15 in
    if kind = escape then begin
      apply ms scratch ~kind:(int_at body (at + 8))
        ~thread:(int_at body (at + 16)) ~addr:(int_at body (at + 24))
        ~size:(int_at body (at + 32)) body (at + 40);
      p := at + wide_bytes
    end
    else begin
      let thread = ((w lsr 6) land 0xFFFF) - 1 and addr = w lsr 22 in
      if kind = Memsys.k_load then begin
        ignore
          (Memsys.access_load ms ~thread addr ~size:(1 lsl ((w lsr 4) land 3))
             scratch
            : int);
        p := at + 8
      end
      else begin
        let size =
          if is_region kind then int_at body (at + 8)
          else 1 lsl ((w lsr 4) land 3)
        in
        apply ms scratch ~kind ~thread ~addr ~size body (at + 8);
        p := at + Array.unsafe_get record_bytes kind
      end
    end
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

(* WOBS v3: magic, version, geometry, protocol, event count, the body as
   a length-prefixed blob, then [Bin.word_checksum] of everything before
   it — header fields included. *)
let to_bytes t =
  let body_len = List.fold_left (fun n v -> n + v.len) 0 t.body in
  let h = Bin.writer ~capacity:128 () in
  Bin.w_string h magic;
  Bin.w_int h version;
  Bin.w_int h t.sockets;
  Bin.w_int h t.cores_per_socket;
  Bin.w_int h t.threads_per_core;
  Bin.w_string h t.proto;
  Bin.w_int h t.events;
  Bin.w_int h body_len;
  let hlen = Bin.length h in
  let covered = hlen + body_len in
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

let truncated_record at =
  Bin.corrupt (Printf.sprintf "Stream: truncated record at body byte %d" at)

let unknown_kind kind at =
  Bin.corrupt
    (Printf.sprintf "Stream: unknown event kind %d at body byte %d" kind at)

(* Walk a body once: every record whole, every kind known, and exactly
   [events] records. [replay_view] relies on this and checks nothing. *)
let walk bytes ~off ~len ~events =
  let stop = off + len in
  let p = ref off and n = ref 0 in
  while !p < stop do
    let at = !p in
    if at + 8 > stop then truncated_record (at - off);
    let kind = int_at bytes at land 15 in
    let rlen = Array.unsafe_get record_bytes kind in
    if rlen = 0 then unknown_kind kind (at - off);
    if at + rlen > stop then truncated_record (at - off);
    if kind = escape then begin
      let k = int_at bytes (at + 8) in
      if k land lnot 15 <> 0 || k = escape || Array.unsafe_get record_bytes k = 0
      then unknown_kind k (at - off)
    end;
    p := at + rlen;
    incr n
  done;
  if !n <> events then
    Bin.corrupt
      (Printf.sprintf "Stream: header counts %d events, the body holds %d"
         events !n)

(* Validate the envelope where it lies and keep a view of its body: the
   checksum first, then one walk over the records; nothing is copied. *)
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
  let ck = Int64.to_int (Bytes.get_int64_le bytes (off + len)) in
  if ck <> Bin.word_checksum bytes ~pos:0 ~len:(off + len) then
    Bin.corrupt "Stream: checksum mismatch (corrupt trace)";
  walk bytes ~off ~len ~events;
  {
    sockets;
    cores_per_socket;
    threads_per_core;
    proto;
    events;
    body = [ { buf = bytes; off; len } ];
  }

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
