(* Snapshot/restore (DESIGN.md §15) and trace replay.

   1. Serialization primitives round-trip: Store's interval-table pages
      differentially against a rebuilt table, Csa's chunked LLC store
      preserving unallocated-chunk-is-miss, Dirstate on both sides of
      the 62-core boundary (one sharer word per slot, one per socket).
   2. Restore-then-run bit-identity: running phase A, snapshotting,
      restoring into a fresh engine and running phase B must leave the
      restored engine byte-identical (snapshot bytes and stats dump) to
      the engine that ran A then B cold — across machines and both
      protocols.
   3. Replay: a recorded commit-order stream replayed through a fresh
      engine reproduces the recording run's memory-system stats byte
      for byte; cross-protocol replay consumes the same stream.
   4. Corruption: checksum damage, truncation, an older format version
      and fingerprint mismatches (wrong protocol) are detected, never
      silently restored.
   The snapshot bytes of two fixed runs are also pinned to digests. *)

open Warden_util
open Warden_machine
open Warden_sim
module Ops = Engine.Ops
module Snap = Warden_snap.Snap
module Stream = Warden_trace.Stream

let roundtrip save restore_into =
  let w = Bin.writer () in
  save w;
  restore_into (Bin.reader (Bin.contents w))

(* ---- 1. Serialization primitives ----------------------------------------- *)

let test_store_roundtrip () =
  (* Sparse writes across distant pages; the restored table must answer
     exactly like a table rebuilt by replaying the same writes. *)
  let writes =
    List.init 64 (fun i ->
        let addr = (i * 77773 * 64) + (8 * (i mod 7)) in
        (addr, Int64.of_int ((i * 0x9E3779B9) lxor 0x5EED)))
  in
  let original = Warden_mem.Store.create () in
  let rebuilt = Warden_mem.Store.create () in
  List.iter
    (fun (a, v) ->
      Warden_mem.Store.store original a ~size:8 v;
      Warden_mem.Store.store rebuilt a ~size:8 v)
    writes;
  let restored = Warden_mem.Store.create () in
  roundtrip
    (fun w -> Warden_mem.Store.save original w)
    (fun r -> Warden_mem.Store.restore restored r);
  List.iter
    (fun (a, _) ->
      Alcotest.(check int64)
        (Printf.sprintf "addr %#x restored = rebuilt" a)
        (Warden_mem.Store.load rebuilt a ~size:8)
        (Warden_mem.Store.load restored a ~size:8);
      (* Unwritten neighbours stay zero-filled on both. *)
      let hole = a + (613 * 64) in
      Alcotest.(check int64)
        (Printf.sprintf "hole %#x stays zero" hole)
        (Warden_mem.Store.load rebuilt hole ~size:8)
        (Warden_mem.Store.load restored hole ~size:8))
    writes;
  Alcotest.(check int) "footprint identical"
    (Warden_mem.Store.footprint_bytes rebuilt)
    (Warden_mem.Store.footprint_bytes restored)

let test_csa_roundtrip () =
  let open Warden_cache in
  let mk () = Csa.create ~sets:4096 ~ways:4 in
  let original = mk () in
  (* Touch a handful of widely-spaced sets so only a few chunks
     materialize. *)
  let blks = List.init 40 (fun i -> i * 131 * 13) in
  List.iter (fun b -> ignore (Csa.insert original b (b * 3) : _ option)) blks;
  let restored = mk () in
  roundtrip
    (fun w -> Csa.save original w ~elt:Bin.w_int)
    (fun r -> Csa.restore restored r ~elt:Bin.r_int);
  Alcotest.(check int) "chunk population preserved"
    (Csa.chunks_allocated original)
    (Csa.chunks_allocated restored);
  Alcotest.(check bool) "lazy: not all chunks allocated" true
    (Csa.chunks_allocated restored < Csa.chunks_total restored);
  List.iter
    (fun b ->
      match Csa.find restored b with
      | -1 -> Alcotest.failf "block %d lost across round trip" b
      | p -> Alcotest.(check int) "payload preserved" (b * 3) p)
    blks;
  (* Probing a set in a never-materialized chunk is still a miss and
     still does not materialize anything. *)
  let absent = 997 in
  let before = Csa.chunks_allocated restored in
  Alcotest.(check bool) "unallocated chunk probes as miss" true
    (Csa.find restored absent = -1);
  Alcotest.(check int) "miss probe materializes nothing" before
    (Csa.chunks_allocated restored)

let dirstate_equal_on dir dir' ~cores ~blks =
  List.iter
    (fun blk ->
      let s = Warden_proto.Dirstate.find dir blk in
      let s' = Warden_proto.Dirstate.find dir' blk in
      let open Warden_proto.Dirstate in
      Alcotest.(check bool)
        (Printf.sprintf "block %d presence" blk)
        (s = no_slot) (s' = no_slot);
      if s <> no_slot then begin
        Alcotest.(check bool)
          (Printf.sprintf "block %d state" blk)
          true
          (state dir s = state dir' s');
        Alcotest.(check int)
          (Printf.sprintf "block %d owner" blk)
          (owner dir s) (owner dir' s');
        for c = 0 to cores - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "block %d sharer %d" blk c)
            (sharer_mem dir s c) (sharer_mem dir' s' c)
        done
      end)
    blks

let test_dirstate_62_core_boundary () =
  let open Warden_proto in
  (* 2x31 = 62 cores: the last with one sharer word per slot; 2x32 = 64:
     the first with one per socket. *)
  List.iter
    (fun (sockets, cps) ->
      let cores = sockets * cps in
      let dir = Dirstate.create ~sockets ~cores_per_socket:cps () in
      let blks = List.init 200 (fun i -> i * 997) in
      List.iter
        (fun blk ->
          let s = Dirstate.entry dir blk in
          match blk mod 3 with
          | 0 ->
              Dirstate.set_state dir s States.D_S;
              (* Sharers straddling the socket boundary. *)
              Dirstate.sharer_add dir s (blk mod cores);
              Dirstate.sharer_add dir s ((blk + cps) mod cores)
          | 1 ->
              Dirstate.set_state dir s States.D_M;
              Dirstate.set_owner dir s (blk mod cores)
          | _ -> ())
        blks;
      let w = Bin.writer () in
      Dirstate.save dir w;
      let image = Bin.contents w in
      (* The layout word leads the image; the sharer array follows the
         four header ints and the key and meta arrays. *)
      let int_at off = Int64.to_int (Bytes.get_int64_le image off) in
      let cap = int_at 32 in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%d cores: layout word, sharer words" cores)
        (if cores > 62 then (sockets, cap * sockets) else (0, cap))
        (int_at 0, int_at (48 + (16 * cap)));
      let restored = Dirstate.create ~sockets ~cores_per_socket:cps () in
      Dirstate.restore restored (Bin.reader image);
      dirstate_equal_on dir restored ~cores ~blks)
    [ (2, 31); (2, 32) ];
  (* Geometry mismatch is refused, not mangled. *)
  let dir = Dirstate.create ~sockets:2 ~cores_per_socket:31 () in
  ignore (Dirstate.entry dir 7 : Dirstate.slot);
  let w = Bin.writer () in
  Dirstate.save dir w;
  let other = Dirstate.create ~sockets:2 ~cores_per_socket:32 () in
  Alcotest.check_raises "geometry mismatch detected"
    (Bin.Corrupt "Bin: Dirstate: geometry mismatch") (fun () ->
      Dirstate.restore other (Bin.reader (Bin.contents w)))

(* A malformed directory image is refused with the field named, and the
   target directory is left as it was. Rewriting [shift] of a 10-entry
   directory (57, for 64 slots) to 40 used to be accepted; the next
   [find] then read far outside the key array. The image is the six
   ints and arrays [Dirstate.save] writes: the layout word, cps, used,
   shift, then keys (length first), meta, the sharer words and an empty
   array. *)
let test_dirstate_restore_malformed () =
  let module D = Warden_proto.Dirstate in
  let dir = D.create ~sockets:2 ~cores_per_socket:12 () in
  let blks = List.init 10 (fun i -> 1000 + (7 * i)) in
  List.iter (fun b -> ignore (D.entry dir b : D.slot)) blks;
  let w = Bin.writer () in
  D.save dir w;
  let image = Bin.contents w in
  let int_at off = Int64.to_int (Bytes.get_int64_le image off) in
  Alcotest.(check int) "shift of 64 slots" 57 (int_at 24);
  let cap = int_at 32 in
  let key i = 40 + (8 * i) in
  let slot_of b = D.find dir b in
  let s0 = slot_of (List.hd blks) in
  let emptied = List.find (fun i -> int_at (key i) = -1) (List.init cap Fun.id) in
  let cases =
    [
      ("bad shift", [ (24, 40) ]);
      ("bad used count", [ (16, 11) ]);
      ("bad key", [ (key emptied, -2) ]);
      ( "bad used count",
        (16, cap) :: List.init cap (fun i -> (key i, 5000 + i)) );
      (* Move a key off its probe sequence: past the slot it vacates. *)
      ( "misplaced key",
        [ (key s0, -1); (key ((s0 + (cap / 2)) land (cap - 1)), List.hd blks) ]
      );
    ]
  in
  List.iter
    (fun (field, edits) ->
      let b = Bytes.copy image in
      List.iter (fun (off, v) -> Bytes.set_int64_le b off (Int64.of_int v)) edits;
      let target = D.create ~sockets:2 ~cores_per_socket:12 () in
      ignore (D.entry target 3 : D.slot);
      Alcotest.check_raises field
        (Bin.Corrupt ("Bin: Dirstate: " ^ field))
        (fun () -> D.restore target (Bin.reader b));
      Alcotest.(check bool) "target unchanged" true
        (D.find target 3 <> D.no_slot && D.find target 1000 = D.no_slot))
    cases;
  (* An image of the earlier two-array layout above 62 cores: a coarse
     socket-presence word per slot, then the per-socket words in the last
     array. Converted here from a current 64-core image. *)
  let dir = D.create ~sockets:2 ~cores_per_socket:32 () in
  List.iter
    (fun b ->
      let s = D.entry dir b in
      D.set_state dir s Warden_proto.States.D_S;
      D.sharer_add dir s (b mod 64))
    blks;
  let w = Bin.writer () in
  D.save dir w;
  let r = Bin.reader (Bin.contents w) in
  let header = List.init 4 (fun _ -> Bin.r_int r) in
  let keys = Bin.r_int_array r in
  let meta = Bin.r_int_array r in
  let fine = Bin.r_int_array r in
  let coarse =
    Array.init (Array.length keys) (fun s ->
        (if fine.(2 * s) <> 0 then 1 else 0)
        lor if fine.((2 * s) + 1) <> 0 then 2 else 0)
  in
  let w = Bin.writer () in
  List.iter (Bin.w_int w) header;
  List.iter (Bin.w_int_array w) [ keys; meta; coarse; fine ];
  let target = D.create ~sockets:2 ~cores_per_socket:32 () in
  ignore (D.entry target 3 : D.slot);
  Alcotest.check_raises "two-array layout above 62 cores"
    (Bin.Corrupt "Bin: Dirstate: inconsistent arrays")
    (fun () -> D.restore target (Bin.reader (Bin.contents w)));
  Alcotest.(check bool) "target unchanged" true
    (D.find target 3 <> D.no_slot && D.find target 1000 = D.no_slot)

(* ---- 2. Restore-then-run bit-identity ------------------------------------ *)

(* A small sharing-heavy workload: 4 threads walking overlapping block
   sets with a load/store/rmw mix, phase-dependent so A and B differ. *)
let phase_bodies ms ~round =
  let base = Memsys.alloc ms ~bytes:(64 * 64) ~align:64 in
  Array.init 4 (fun t () ->
      for i = 0 to 199 do
        let a = base + (64 * ((i * 7) + (t * 13) + round) mod (64 * 64)) in
        let a = a land lnot 7 in
        if i mod 5 = t mod 5 then Ops.store a ~size:8 (Int64.of_int (i + round))
        else if i mod 16 = 0 then
          ignore (Ops.rmw a ~size:8 (Int64.add 1L) : int64)
        else ignore (Ops.load a ~size:8 : int64);
        Ops.tick 1
      done)

let stats_and_bytes eng =
  (Stream.stats_text (Engine.memsys eng), Snap.to_bytes eng)

(* The snapshot format is pinned: two fixed runs must serialize to the
   same bytes that builds keeping each line in its own heap object
   produced, so snapshots written by those builds still restore. The
   digests are of the whole WSNP v2 envelope (header, fingerprint,
   payload). fib at scale 16 on the single-socket machine ends flushed;
   the sharing phase on the dual-socket machine ends with dirty private
   copies, so its digest also pins the dirty masks. *)
let test_snapshot_format_pinned () =
  let digest eng = Digest.to_hex (Digest.bytes (Snap.to_bytes eng)) in
  let spec = Option.get (Warden_pbbs.Suite.find "fib") in
  let eng = Engine.create (Config.single_socket ()) ~proto:`Warden in
  let ok = spec.Warden_pbbs.Spec.run ~scale:16 ~seed:0x5EEDF00DL eng in
  Alcotest.(check bool) "fib verified" true ok;
  Alcotest.(check string)
    "fib WSNP v2 digest" "9ce9688afdd38c7d790136da09484215" (digest eng);
  let eng = Engine.create (Config.dual_socket ()) ~proto:`Warden in
  ignore (Engine.run eng (phase_bodies (Engine.memsys eng) ~round:0) : int);
  Alcotest.(check string) "unflushed WSNP v2 digest"
    "d81911d63010122a5d836e281de2027d" (digest eng)

let test_restore_then_run () =
  let machines =
    [
      ("single", Config.single_socket ());
      ("dual", Config.dual_socket ());
      ("mesh4", Config.numa_mesh ~sockets:4 ());
    ]
  in
  List.iter
    (fun (mname, cfg) ->
      List.iter
        (fun proto ->
          let label =
            Printf.sprintf "%s/%s" mname (Warden_harness.Exp.proto_name proto)
          in
          (* Cold: A then B on one engine. *)
          let cold = Engine.create cfg ~proto in
          let ms = Engine.memsys cold in
          ignore (Engine.run cold (phase_bodies ms ~round:0) : int);
          let mid = Snap.to_bytes cold in
          ignore (Engine.run cold (phase_bodies ms ~round:1) : int);
          let cold_stats, cold_bytes = stats_and_bytes cold in
          (* Restored: B on a fresh engine restored from A's end. *)
          let warm = Engine.create cfg ~proto in
          Snap.restore warm mid;
          ignore
            (Engine.run warm (phase_bodies (Engine.memsys warm) ~round:1) : int);
          let warm_stats, warm_bytes = stats_and_bytes warm in
          Alcotest.(check string)
            (label ^ ": stats bit-identical")
            cold_stats warm_stats;
          Alcotest.(check bool)
            (label ^ ": snapshot bytes bit-identical")
            true
            (Bytes.equal cold_bytes warm_bytes))
        [ `Mesi; `Warden ])
    machines


(* ---- 3. Replay ------------------------------------------------------------ *)

let test_replay_stats_identical () =
  let cfg = Config.dual_socket () in
  let live = Engine.create cfg ~proto:`Warden in
  let stream =
    snd
      (Stream.record (Engine.memsys live) (fun () ->
           ignore (Engine.run live (phase_bodies (Engine.memsys live) ~round:0) : int)))
  in
  Alcotest.(check bool) "stream non-empty" true (Stream.events stream > 0);
  let replayed = Engine.create cfg ~proto:`Warden in
  let n = Stream.replay stream (Engine.memsys replayed) in
  Alcotest.(check int) "every event consumed" (Stream.events stream) n;
  Alcotest.(check string) "replayed stats = live stats"
    (Stream.stats_text (Engine.memsys live))
    (Stream.stats_text (Engine.memsys replayed));
  (* The same stream drives the other protocol (trace-driven A/B). *)
  let ab = Engine.create cfg ~proto:`Mesi in
  Alcotest.(check int) "cross-protocol replay consumes the stream"
    (Stream.events stream)
    (Stream.replay stream (Engine.memsys ab))

(* A WOBS v3 envelope around [body], built by hand: what
   [Stream.to_bytes] writes, with any event count and body. *)
let envelope ~events body =
  let w = Bin.writer () in
  Bin.w_string w "WOBS";
  Bin.w_int w 3;
  List.iter (Bin.w_int w) [ 1; 1; 1 ];
  Bin.w_string w "mesi";
  Bin.w_int w events;
  Bin.w_bytes w body;
  let covered = Bin.length w in
  Bin.w_int w 0;
  let b = Bin.contents w in
  Bytes.set_int64_le b covered
    (Int64.of_int (Bin.word_checksum b ~pos:0 ~len:covered));
  b

(* A body of packed records, one 64-bit word each (a value word is just
   another word). *)
let words ws =
  let b = Bytes.create (8 * List.length ws) in
  List.iteri (fun i w -> Bytes.set_int64_le b (8 * i) (Int64.of_int w)) ws;
  b

(* [events] acquire fences by thread 0, so that [of_bytes] can be fed
   bodies of any size without recording them. *)
let synthetic_envelope ~events =
  envelope ~events
    (words (List.init events (fun _ -> Memsys.k_acquire lor (1 lsl 6))))

let test_stream_envelope_roundtrip () =
  let cfg = Config.single_socket () in
  let live = Engine.create cfg ~proto:`Mesi in
  let stream =
    snd
      (Stream.record (Engine.memsys live) (fun () ->
           ignore (Engine.run live (phase_bodies (Engine.memsys live) ~round:0) : int)))
  in
  let b = Stream.to_bytes stream in
  let back = Stream.of_bytes b in
  Alcotest.(check int) "event count survives" (Stream.events stream)
    (Stream.events back);
  Alcotest.(check string) "protocol name survives" (Stream.proto stream)
    (Stream.proto back);
  Alcotest.(check bool) "re-enveloping is byte-identical" true
    (Bytes.equal b (Stream.to_bytes back));
  let replayed = Engine.create cfg ~proto:`Mesi in
  ignore (Stream.replay back (Engine.memsys replayed) : int);
  Alcotest.(check string) "decoded stream replays the live stats"
    (Stream.stats_text (Engine.memsys live))
    (Stream.stats_text (Engine.memsys replayed));
  let refused what ?msg dam =
    match Stream.of_bytes dam with
    | exception Bin.Corrupt m ->
        Alcotest.(check bool)
          (what ^ ": a named Stream error (" ^ m ^ ")")
          true
          (String.starts_with ~prefix:"Bin: Stream: " m
          && match msg with None -> true | Some x -> String.equal x m)
    | _ -> Alcotest.failf "%s: accepted" what
  in
  let flip off =
    let dam = Bytes.copy b in
    Bytes.set dam off (Char.chr (Char.code (Bytes.get dam off) lxor 0x20));
    dam
  in
  (* Header layout: magic (8 + 4), version, three geometry words, the
     protocol name (8 + its length), the event count, the body length. *)
  let proto_at = 12 + 8 + 24 in
  let events_at = proto_at + 8 + String.length (Stream.proto stream) in
  let body_at = events_at + 16 in
  refused "body byte" (flip ((body_at + Bytes.length b) / 2))
    ~msg:"Bin: Stream: checksum mismatch (corrupt trace)";
  refused "checksum byte" (flip (Bytes.length b - 3));
  refused "event count byte" (flip events_at);
  refused "sockets byte" (flip 20)
    ~msg:"Bin: Stream: checksum mismatch (corrupt trace)";
  refused "threads-per-core byte" (flip 36);
  refused "protocol name byte" (flip (proto_at + 9))
    ~msg:"Bin: Stream: checksum mismatch (corrupt trace)";
  (* A v2 envelope is refused by its version, whatever follows. *)
  let v2 = Bytes.copy b in
  Bytes.set_int64_le v2 12 2L;
  refused "v2 envelope" v2
    ~msg:"Bin: Stream: trace version 2, this build reads 3";
  (* Under a valid checksum, the body walk refuses what replay could not
     read: half a record, a kind no record has, and more events than
     records. *)
  let store_word = Memsys.k_store lor (3 lsl 4) lor (1 lsl 6) lor (64 lsl 22) in
  refused "half a store record" (envelope ~events:1 (words [ store_word ]))
    ~msg:"Bin: Stream: truncated record at body byte 0";
  refused "half a word" (envelope ~events:1 (Bytes.make 4 '\000'))
    ~msg:"Bin: Stream: truncated record at body byte 0";
  refused "half a wide record"
    (envelope ~events:2 (words [ Memsys.k_flush; 15; Memsys.k_load; 0; 0 ]))
    ~msg:"Bin: Stream: truncated record at body byte 8";
  for kind = 9 to 14 do
    refused
      (Printf.sprintf "unknown kind %d" kind)
      (envelope ~events:2 (words [ Memsys.k_flush; kind lor (1 lsl 6) ]))
      ~msg:(Printf.sprintf "Bin: Stream: unknown event kind %d at body byte 8" kind)
  done;
  refused "unknown kind in a wide record"
    (envelope ~events:1 (words [ 15; 9; 0; 0; 0; 0 ]))
    ~msg:"Bin: Stream: unknown event kind 9 at body byte 0";
  let body_len = Int64.to_int (Bytes.get_int64_le b (events_at + 8)) in
  let body = Bytes.sub b body_at body_len in
  refused "one event too many"
    (envelope ~events:(Stream.events stream + 1) body)
    ~msg:
      (Printf.sprintf "Bin: Stream: header counts %d events, the body holds %d"
         (Stream.events stream + 1)
         (Stream.events stream));
  Alcotest.(check bool) "the same body under its own count is accepted" true
    (Stream.events (Stream.of_bytes (envelope ~events:(Stream.events stream) body))
    = Stream.events stream);
  List.iter
    (fun keep ->
      refused
        (Printf.sprintf "truncated to %d bytes" keep)
        (Bytes.sub b 0 keep))
    [ 0; 6; 13; body_at - 3; body_at; Bytes.length b / 2; Bytes.length b - 1 ];
  refused "trailing bytes" (Bytes.cat b (Bytes.make 5 '\000'));
  refused "not a trace" (Bytes.of_string "this is not a warden trace");
  (* [of_bytes] keeps a view of its argument: it allocates the same
     whatever the body's size. *)
  let allocated events =
    let env = synthetic_envelope ~events in
    let before = Gc.allocated_bytes () in
    let s = Stream.of_bytes env in
    let bytes = Gc.allocated_bytes () -. before in
    Alcotest.(check int) "synthetic events" events (Stream.events s);
    bytes
  in
  let small = allocated 10 and large = allocated 100_000 in
  Alcotest.(check (float 0.)) "of_bytes allocation independent of body size"
    small large;
  Alcotest.(check bool) "of_bytes allocates under 1 KB" true (small < 1024.)

(* One run that reports every event kind, every access size, region
   add/remove, a flush and host pokes: each op with the length its
   record takes, and each written (address, size). [wide] adds loads and
   a region at an address too high for a packed record. They write
   nothing: the store's written-block set is dense in the block number,
   so a write that high would allocate gigabytes. *)
let all_kinds_ops ~wide ms =
  let base = Memsys.alloc ms ~bytes:4096 ~align:4096 in
  let far = 1 lsl 41 in
  let load thread a size =
    ((if a >= far then 48 else 8), fun () -> ignore (Memsys.load ms ~thread a ~size))
  in
  let store thread a size v =
    (16, fun () -> ignore (Memsys.store ms ~thread a ~size v : int))
  in
  let poke a size v = (16, fun () -> Memsys.poke ms a ~size v) in
  let rmw thread a size =
    (16, fun () -> ignore (Memsys.rmw ms ~thread a ~size (Int64.add 3L)))
  in
  let ops =
    List.concat_map
      (fun size ->
        let a = base + (64 * size) in
        [
          poke a size (Int64.of_int (0x1122 * size));
          load 0 a size;
          store 1 (a + size) size (Int64.of_int (-size));
          load 2 (a + size) size;
          rmw 3 a size;
          load 0 a size;
        ])
      [ 1; 2; 4; 8 ]
    @ [
        (8, fun () -> ignore (Memsys.acquire ms ~thread:1 : int));
        ( 16,
          fun () ->
            ignore (Memsys.region_add ms ~thread:2 ~lo:(base + 1024) ~hi:(base + 1152) : bool) );
        store 2 (base + 1024) 8 7L;
        load 2 (base + 1088) 4;
        ( 16,
          fun () ->
            ignore (Memsys.region_remove ms ~thread:2 ~lo:(base + 1024) ~hi:(base + 1152) : int) );
        (8, fun () -> ignore (Memsys.release ms ~thread:1 : int));
        store 5 (base + 64) 1 0xABL;
        load 4 (base + 64) 8;
      ]
    @ (if wide then
         [
           load 0 far 8;
           ( 48,
             fun () ->
               ignore (Memsys.region_add ms ~thread:1 ~lo:far ~hi:(far + 128) : bool) );
           load 1 (far + 64) 4;
           ( 48,
             fun () ->
               ignore (Memsys.region_remove ms ~thread:1 ~lo:far ~hi:(far + 128) : int) );
         ]
       else [])
    @ [ (8, fun () -> Memsys.flush_all ms) ]
  in
  let written =
    List.concat_map
      (fun size ->
        let a = base + (64 * size) in
        [ (a, size); (a + size, size) ])
      [ 1; 2; 4; 8 ]
    @ [ (base + 1024, 8); (base + 64, 1) ]
  in
  (ops, written)

(* WOBS v3 packed records: every event kind and size, and forced wide
   records, replay to the live run's stats and memory, and the envelope
   re-encodes to the same bytes. Without wide records, the body is
   exactly 8 bytes per load, flush and fence and 16 per store, RMW, poke
   and region event. *)
let test_stream_v3_roundtrip () =
  let cfg = Config.dual_socket () in
  List.iter
    (fun wide ->
      let label what = Printf.sprintf "%s (wide records: %b)" what wide in
      let live = Memsys.create cfg ~proto:`Warden in
      let ops, written = all_kinds_ops ~wide live in
      let (), stream =
        Stream.record live (fun () -> List.iter (fun (_, op) -> op ()) ops)
      in
      Alcotest.(check int) (label "one event per op") (List.length ops)
        (Stream.events stream);
      let b = Stream.to_bytes stream in
      let back = Stream.of_bytes b in
      Alcotest.(check bool) (label "re-enveloping is byte-identical") true
        (Bytes.equal b (Stream.to_bytes back));
      (* Header: magic (8 + 4), version, three geometry words, the
         protocol name (8 + its length), the event count, the body
         length. *)
      let len_at = 12 + 8 + 24 + 8 + String.length (Stream.proto stream) + 8 in
      Alcotest.(check int) (label "body bytes")
        (List.fold_left (fun n (bytes, _) -> n + bytes) 0 ops)
        (Int64.to_int (Bytes.get_int64_le b len_at));
      List.iter
        (fun (what, s) ->
          let ms = Memsys.create cfg ~proto:`Warden in
          ignore (Stream.replay s ms : int);
          Alcotest.(check string) (label (what ^ ": replayed stats"))
            (Stream.stats_text live) (Stream.stats_text ms);
          List.iter
            (fun (a, size) ->
              Alcotest.(check int64)
                (label (Printf.sprintf "%s: memory at %#x" what a))
                (Memsys.peek live a ~size) (Memsys.peek ms a ~size))
            written)
        [ ("pages", stream); ("envelope", back) ])
    [ false; true ]

(* A recording that spans several recorder pages replays, straight from
   its pages and through its envelope, to the live run's stats. *)
let test_stream_pages () =
  let cfg = Config.dual_socket () in
  let spec = Option.get (Warden_pbbs.Suite.find "msort") in
  let live = Engine.create cfg ~proto:`Warden in
  let ok, stream =
    Stream.record (Engine.memsys live) (fun () ->
        spec.Warden_pbbs.Spec.run ~scale:3000 ~seed:0x5EEDF00DL live)
  in
  Alcotest.(check bool) "msort verified" true ok;
  Alcotest.(check bool) "more events than one page holds" true
    (Stream.events stream > 1 lsl 15);
  let expect = Stream.stats_text (Engine.memsys live) in
  List.iter
    (fun (what, s) ->
      let ms = Memsys.create cfg ~proto:`Warden in
      Alcotest.(check int) (what ^ ": every event consumed")
        (Stream.events stream) (Stream.replay s ms);
      Alcotest.(check string) (what ^ ": replayed stats = live stats") expect
        (Stream.stats_text ms))
    [
      ("pages", stream);
      ("envelope", Stream.of_bytes (Stream.to_bytes stream));
    ]

(* ---- 4. Snapshot corruption and fingerprint ------------------------------- *)

let test_snapshot_corruption () =
  let cfg = Config.single_socket () in
  let eng = Engine.create cfg ~proto:`Warden in
  ignore (Engine.run eng (phase_bodies (Engine.memsys eng) ~round:0) : int);
  let b = Snap.to_bytes eng in
  (* Bit flip in the body: checksum. *)
  let dam = Bytes.copy b in
  let i = Bytes.length dam - 9 in
  Bytes.set dam i (Char.chr (Char.code (Bytes.get dam i) lxor 1));
  let fresh () = Engine.create cfg ~proto:`Warden in
  let raises what f =
    Alcotest.(check bool) what true
      (match f () with exception Bin.Corrupt _ -> true | _ -> false)
  in
  raises "checksum damage detected" (fun () -> Snap.restore (fresh ()) dam);
  (* Truncation. *)
  raises "truncation detected" (fun () ->
      Snap.restore (fresh ()) (Bytes.sub b 0 (Bytes.length b / 2)));
  (* Fingerprint: a different protocol refuses the snapshot, naming the
     field. *)
  let wrong = Engine.create cfg ~proto:`Mesi in
  Alcotest.(check bool) "protocol mismatch names the field" true
    (match Snap.restore wrong b with
    | exception Bin.Corrupt msg ->
        let rec contains i =
          i + 8 <= String.length msg
          && (String.sub msg i 8 = "protocol" || contains (i + 1))
        in
        contains 0
    | _ -> false);
  (* An older format version is refused by name: rebuild the envelope
     around the same body and checksum with version 1. *)
  let v1 =
    let r = Bin.reader b in
    let magic = Bin.r_string r in
    ignore (Bin.r_int r : int);
    let body = Bin.r_bytes r in
    let ck = Bin.r_int r in
    let w = Bin.writer () in
    Bin.w_string w magic;
    Bin.w_int w 1;
    Bin.w_bytes w body;
    Bin.w_int w ck;
    Bin.contents w
  in
  Alcotest.check_raises "version 1 refused"
    (Bin.Corrupt "Bin: Snap: snapshot version 1, this build reads 2") (fun () ->
      Snap.restore (fresh ()) v1);
  (* [describe] summarizes without an engine. *)
  let d = Snap.describe b in
  Alcotest.(check bool) "describe mentions the machine" true
    (String.length d > 0)

let suite =
  [
    Alcotest.test_case "store pages round-trip (differential)" `Quick
      test_store_roundtrip;
    Alcotest.test_case "csa chunked store round-trip" `Quick test_csa_roundtrip;
    Alcotest.test_case "dirstate across the 62-core boundary" `Quick
      test_dirstate_62_core_boundary;
    Alcotest.test_case "malformed dirstate refused" `Quick
      test_dirstate_restore_malformed;
    Alcotest.test_case "snapshot format pinned (WSNP v2 digests)" `Quick
      test_snapshot_format_pinned;
    Alcotest.test_case "restore-then-run bit-identical" `Quick
      test_restore_then_run;
    Alcotest.test_case "replay reproduces stats byte for byte" `Quick
      test_replay_stats_identical;
    Alcotest.test_case "stream envelope round-trip and checksum" `Quick
      test_stream_envelope_roundtrip;
    Alcotest.test_case "stream across recorder pages" `Quick test_stream_pages;
    Alcotest.test_case "v3 records: every kind, size and wide form" `Quick
      test_stream_v3_roundtrip;
    Alcotest.test_case "snapshot corruption and fingerprint" `Quick
      test_snapshot_corruption;
  ]

let () = Alcotest.run "warden-snap" [ ("snap", suite) ]
