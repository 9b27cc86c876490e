(* Snapshot/restore (DESIGN.md §15) and trace replay.

   1. Serialization primitives round-trip: Store's written lines against
      a store rebuilt by replaying the same writes, Csa's lazy LLC tag
      store preserving unallocated-chunk-is-miss, Dirstate on both sides
      of the 62-core boundary (one sharer word per slot, one per
      socket), and malformed images of each refused by name.
   2. Restore-then-run bit-identity: running phase A, snapshotting,
      restoring into a fresh engine and running phase B must leave the
      restored engine byte-identical (snapshot bytes and stats dump) to
      the engine that ran A then B cold — across machines and all four
      protocols. A core that never filled a line is one word.
   3. Replay: a recorded commit-order stream replayed through a fresh
      engine reproduces the recording run's memory-system stats byte
      for byte; cross-protocol replay consumes the same stream.
   4. Corruption: checksum damage, truncation, older format versions,
      fingerprint mismatches (wrong protocol) and malformed memory-system
      images are detected, never silently restored.
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
      (* Four header ints, then per entry its slot, block, meta and
         sharer words. *)
      let words = if cores > 62 then sockets else 1 in
      Alcotest.(check (pair int int))
        (Printf.sprintf "%d cores: sharer words, image bytes" cores)
        (words, 32 + (200 * 8 * (3 + words)))
        (Int64.to_int (Bytes.get_int64_le image 0), Bytes.length image);
      let restored = Dirstate.create ~sockets ~cores_per_socket:cps () in
      Dirstate.restore restored (Bin.reader image);
      dirstate_equal_on dir restored ~cores ~blks;
      let order d =
        let l = ref [] in
        Dirstate.iter d (fun blk slot -> l := (blk, slot) :: !l);
        !l
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%d cores: every entry at its slot" cores)
        (order dir) (order restored))
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
   target directory is left as it was. The image is the four header ints
   [Dirstate.save] writes (sharer words per entry, cores per socket,
   capacity, entry count), then per entry its slot, block, meta and
   sharer word: 32 bytes each on this 24-core machine. *)
let test_dirstate_restore_malformed () =
  let module D = Warden_proto.Dirstate in
  let dir = D.create ~sockets:2 ~cores_per_socket:12 () in
  let blks = List.init 10 (fun i -> 1000 + (7 * i)) in
  List.iter (fun b -> ignore (D.entry dir b : D.slot)) blks;
  let w = Bin.writer () in
  D.save dir w;
  let image = Bin.contents w in
  let int_at off = Int64.to_int (Bytes.get_int64_le image off) in
  Alcotest.(check (pair int int)) "capacity and entries" (64, 10)
    (int_at 16, int_at 24);
  let entry i = 32 + (32 * i) in
  let last = entry 9 in
  Alcotest.(check bool) "the last entry has room above it" true
    (int_at last < 63);
  let cases =
    [
      ("geometry mismatch", [ (8, 13) ]);
      ("wrong number of sharer words", [ (0, 2) ]);
      ("bad used count", [ (24, 33) ]);
      ("bad used count", [ (24, 11) ]);
      ("bad used count", [ (24, -1) ]);
      ("bad capacity", [ (16, 48) ]);
      ("bad capacity", [ (16, 1 lsl 20) ]);
      ("misplaced slot", [ (entry 1, int_at (entry 0)) ]);
      ("misplaced slot", [ (last, 64) ]);
      (* Off its probe sequence: past the slot it vacates. *)
      ("misplaced slot", [ (last, int_at last + 1) ]);
      ("negative block", [ (entry 3 + 8, -7) ]);
      ("duplicate block", [ (entry 4 + 8, int_at (entry 2 + 8)) ]);
      ("bad meta", [ (entry 0 + 16, 7) ]);
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
  (* A 64-core image has two sharer words per entry: a 32-core
     directory with the same cores per socket refuses it. *)
  let wide = D.create ~sockets:2 ~cores_per_socket:32 () in
  ignore (D.entry wide 5 : D.slot);
  let w = Bin.writer () in
  D.save wide w;
  Alcotest.check_raises "sharer words per entry"
    (Bin.Corrupt "Bin: Dirstate: wrong number of sharer words") (fun () ->
      D.restore
        (D.create ~sockets:1 ~cores_per_socket:32 ())
        (Bin.reader (Bin.contents w)))

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
   same bytes, so a change to the format is a deliberate one. The
   digests are of the whole WSNP v4 envelope (header, fingerprint,
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
    "fib WSNP v4 digest" "3bb6c807a83a414e5a1004034939d215" (digest eng);
  let eng = Engine.create (Config.dual_socket ()) ~proto:`Warden in
  ignore (Engine.run eng (phase_bodies (Engine.memsys eng) ~round:0) : int);
  Alcotest.(check string) "unflushed WSNP v4 digest"
    "19dcfc2785020098f5d89c5ba480f1fb" (digest eng)

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
        [ `Mesi; `Warden; `Msi_bus; `Sisd ])
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
   record takes, and each written (address, size). [wide] adds a poke,
   loads and a region at an address too high for a packed record. *)
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
           (48, fun () -> Memsys.poke ms far ~size:8 0x5EEDL);
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
    @ if wide then [ (far, 8) ] else []
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
  let fresh () = Engine.create cfg ~proto:`Warden in
  let refused what msg bytes =
    Alcotest.check_raises what (Bin.Corrupt ("Bin: Snap: " ^ msg)) (fun () ->
        Snap.restore (fresh ()) bytes)
  in
  (* A flipped bit in the body's last byte or in the checksum word. *)
  List.iter
    (fun (what, i) ->
      let dam = Bytes.copy b in
      Bytes.set dam i (Char.chr (Char.code (Bytes.get dam i) lxor 1));
      refused what "checksum mismatch (truncated or corrupt snapshot)" dam)
    [ ("body byte flipped", Bytes.length b - 9); ("checksum byte flipped", Bytes.length b - 3) ];
  (* Truncation, inside the body and inside the checksum word. *)
  List.iter
    (fun (what, len) -> refused what "truncated snapshot" (Bytes.sub b 0 len))
    [ ("cut in half", Bytes.length b / 2); ("checksum cut", Bytes.length b - 4) ];
  refused "trailing bytes" "3 bytes after the checksum"
    (Bytes.cat b (Bytes.of_string "end"));
  refused "not a snapshot" "not a warden snapshot (bad magic)"
    (Bytes.of_string "this is not a warden snapshot\n");
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
  (* Older format versions are refused by name, leaving the engine as
     it was: rebuild the envelope around the same body and checksum. *)
  List.iter
    (fun v ->
      let old =
        let r = Bin.reader b in
        let magic = Bin.r_string r in
        ignore (Bin.r_int r : int);
        let body = Bin.r_bytes r in
        let ck = Bin.r_int r in
        let w = Bin.writer () in
        Bin.w_string w magic;
        Bin.w_int w v;
        Bin.w_bytes w body;
        Bin.w_int w ck;
        Bin.contents w
      in
      let target = fresh () in
      Alcotest.check_raises
        (Printf.sprintf "version %d refused" v)
        (Bin.Corrupt
           (Printf.sprintf
              "Bin: Snap: snapshot version %d, this build reads 4" v))
        (fun () -> Snap.restore target old);
      Alcotest.(check bool)
        (Printf.sprintf "version %d: target unchanged" v)
        true
        (Bytes.equal (Snap.to_bytes (fresh ())) (Snap.to_bytes target)))
    [ 1; 2; 3 ];
  (* A thread clock outside the run queue's 42-bit range is refused
     before anything is installed, not at the next run. The clocks
     follow the fingerprint and the thread count. *)
  let body =
    let r = Bin.reader b in
    ignore (Bin.r_string r : string);
    ignore (Bin.r_int r : int);
    Bin.r_bytes r
  in
  let engine_len =
    let w = Bin.writer () in
    Engine.snapshot eng w;
    Bin.length w
  in
  List.iter
    (fun clock ->
      let body = Bytes.copy body in
      Bytes.set_int64_le body (Bytes.length body - engine_len + 8) clock;
      let w = Bin.writer () in
      Bin.w_string w "WSNP";
      Bin.w_int w 4;
      Bin.w_bytes w body;
      Bin.w_int w (Bin.word_checksum body ~pos:0 ~len:(Bytes.length body));
      let target = fresh () in
      Alcotest.check_raises
        (Printf.sprintf "clock %Ld refused" clock)
        (Bin.Corrupt "Bin: Engine: thread clock out of range")
        (fun () -> Snap.restore target (Bin.contents w));
      Alcotest.(check bool)
        (Printf.sprintf "clock %Ld: target unchanged" clock)
        true
        (Bytes.equal (Snap.to_bytes (fresh ())) (Snap.to_bytes target)))
    [ -1L; Int64.shift_left 1L 42 ];
  (* [describe] summarizes without an engine. *)
  let d = Snap.describe b in
  Alcotest.(check bool) "describe mentions the machine" true
    (String.length d > 0)

let memsys_image ms =
  let w = Bin.writer () in
  Memsys.save_state ms w;
  Bin.contents w

(* Where the core count sits in a memory-system image: after the store's
   lines and the LLC slices. *)
let cores_at ms =
  let llc = Memsys.llc ms in
  let w = Bin.writer () in
  Warden_mem.Store.save (Llc.store llc) w;
  Llc.save llc w;
  Bin.length w

(* A core that never filled a line is one word of the image; the others
   are their hierarchies. *)
let test_blank_cores_one_word () =
  let cfg = Config.numa_mesh ~sockets:4 () in
  let eng = Engine.create cfg ~proto:`Warden in
  let ms = Engine.memsys eng in
  ignore (Engine.run eng (phase_bodies ms ~round:0) : int);
  let r = Bin.reader (memsys_image ms) in
  for _ = 1 to cores_at ms do
    ignore (Bin.r_u8 r : int)
  done;
  let n = Bin.r_int r in
  Alcotest.(check int) "core count" (Config.num_cores cfg) n;
  let blank = ref 0 in
  for _ = 1 to n do
    let before = Bin.r_pos r in
    match Bin.r_int r with
    | 0 ->
        incr blank;
        Alcotest.(check int) "a blank core is one word" 8 (Bin.r_pos r - before)
    | _ ->
        ignore
          (Privcache.restore cfg ~evict:(fun ~blk:_ _ _ -> ()) r
            : Privcache.t)
  done;
  let ran =
    List.length
      (List.sort_uniq compare
         (List.init 4 (fun thread -> Config.core_of_thread cfg thread)))
  in
  Alcotest.(check int) "every core that ran no thread is blank" (n - ran) !blank

(* Malformed memory-system images are refused by name, and the target's
   state is left as it was (the whole image is validated before any of it
   is installed). *)
let test_memsys_restore_malformed () =
  let cfg = Config.dual_socket () in
  let eng = Engine.create cfg ~proto:`Warden in
  let ms = Engine.memsys eng in
  ignore (Engine.run eng (phase_bodies ms ~round:0) : int);
  List.iter (fun a -> Memsys.poke ms a ~size:8 1L) [ 1 lsl 20; 1 lsl 21 ];
  let image = memsys_image ms in
  let at = cores_at ms in
  let patch edits =
    let b = Bytes.copy image in
    List.iter (fun (off, set) -> set b off) edits;
    b
  in
  let int_at off = Int64.to_int (Bytes.get_int64_le image off) in
  let set_int v b off = Bytes.set_int64_le b off (Int64.of_int v) in
  (* Core 0 ran: its flag, then its L1 (four header words and four words
     per way), then its L2 header and first way, then that line's state
     byte. *)
  Alcotest.(check int) "core 0 allocated" 1 (int_at (at + 8));
  let l1 = at + 16 in
  let state_at = l1 + 32 + (32 * int_at (l1 + 24)) + 32 + 32 in
  let cases =
    [
      ( "Memsys: core count mismatch",
        [ (at, set_int (Config.num_cores cfg + 1)) ] );
      ("Memsys: bad hierarchy flag", [ (at + 8, set_int 2) ]);
      ( "Privcache: bad line state",
        [ (state_at, fun b off -> Bytes.set_uint8 b off 7) ] );
      (* Core 0's first L1 way names a block of the same set that L2
         does not hold. *)
      ( "Privcache: an L1 block not in L2",
        [ (l1 + 48, set_int (int_at (l1 + 48) + (Config.l1_sets cfg lsl 20))) ]
      );
      (* The store's second line: its block, after the count and the
         first line's block and bytes. *)
      ("Store: block written twice", [ (80, set_int (int_at 8)) ]);
    ]
  in
  List.iter
    (fun (name, edits) ->
      let target = Memsys.create cfg ~proto:`Warden in
      ignore (Memsys.store target ~thread:0 64 ~size:8 9L : int);
      let before = memsys_image target in
      Alcotest.check_raises name
        (Bin.Corrupt ("Bin: " ^ name))
        (fun () -> Memsys.restore_state target (Bin.reader (patch edits)));
      Alcotest.(check bool) (name ^ ": target unchanged") true
        (Bytes.equal before (memsys_image target)))
    cases;
  let twin = Memsys.create cfg ~proto:`Warden in
  Memsys.restore_state twin (Bin.reader image);
  Alcotest.(check bool) "the unpatched image restores" true
    (Bytes.equal image (memsys_image twin))

let suite =
  [
    Alcotest.test_case "store pages round-trip (differential)" `Quick
      test_store_roundtrip;
    Alcotest.test_case "csa chunked store round-trip" `Quick test_csa_roundtrip;
    Alcotest.test_case "dirstate across the 62-core boundary" `Quick
      test_dirstate_62_core_boundary;
    Alcotest.test_case "malformed dirstate refused" `Quick
      test_dirstate_restore_malformed;
    Alcotest.test_case "snapshot format pinned (WSNP v4 digests)" `Quick
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
    Alcotest.test_case "a core that never filled a line is one word" `Quick
      test_blank_cores_one_word;
    Alcotest.test_case "malformed memory-system images refused" `Quick
      test_memsys_restore_malformed;
  ]

let () = Alcotest.run "warden-snap" [ ("snap", suite) ]
