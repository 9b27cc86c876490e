open Warden_machine

type t = {
  cfg_level : Config.obs_level;
  lvl : int; (* 0 off / 1 counters / 2 full: branch on an int, not a sum *)
  counts : int array; (* indexed by event code *)
  sums : int array; (* arg-weighted totals, same indexing *)
  hist : Hist.t;
  heat : Sink_heatmap.t;
  chrome : Sink_chrome.t;
  l1_lat : int;
  l2_lat : int;
  mutable now : int;
  mutable seq : int;
}

let create (cfg : Config.t) =
  let lvl =
    match cfg.obs_level with Obs_off -> 0 | Obs_counters -> 1 | Obs_full -> 2
  in
  {
    cfg_level = cfg.obs_level;
    lvl;
    counts = Array.make Events.count 0;
    sums = Array.make Events.count 0;
    hist = Hist.create ~classes:Events.count;
    heat = Sink_heatmap.create ();
    chrome = Sink_chrome.create ();
    l1_lat = cfg.l1_lat;
    l2_lat = cfg.l2_lat;
    now = 0;
    seq = 0;
  }

let enabled t = t.lvl >= 1
let full t = t.lvl >= 2
let level t = t.cfg_level
let set_now t now = t.now <- now

(* Full level: each record goes straight into the Chrome sink, which
   counts what it cannot keep as dropped. *)
let push_record t ~code ~core ~blk ~arg =
  let seq = t.seq in
  t.seq <- seq + 1;
  Sink_chrome.add t.chrome ~code ~cycle:t.now ~core ~blk ~arg ~seq

let[@inline] bump t code arg =
  Array.unsafe_set t.counts code (Array.unsafe_get t.counts code + 1);
  Array.unsafe_set t.sums code (Array.unsafe_get t.sums code + arg)

(* A hit only counts: its latency is the level's constant, so the hit
   histograms are derived from the counts when read ({!hist}). The count
   is inlined into the memory system's hit path; the rest of a miss's
   recording is out of line. The heatmap, like the Chrome sink, records
   at the full level only: a per-block table update on every miss and
   coherence event costs the counters level more than its budget. *)
let record_miss t ~cls ~core ~blk ~lat =
  Hist.add t.hist ~cls lat;
  if t.lvl >= 2 then begin
    Sink_heatmap.touch_block t.heat ~blk ~cls:(Events.heat_class cls);
    push_record t ~code:cls ~core ~blk ~arg:lat
  end

let[@inline] access t ~cls ~core ~blk ~lat =
  if t.lvl >= 1 then begin
    bump t cls lat;
    if Events.traced cls then record_miss t ~cls ~core ~blk ~lat
  end

let event t ~code ~core ~blk ~arg =
  if t.lvl >= 1 then begin
    bump t code arg;
    if Events.duration_event code then Hist.add t.hist ~cls:code arg;
    if t.lvl >= 2 then begin
      let hc = Events.heat_class code in
      if hc >= 0 then begin
        Sink_heatmap.touch_block t.heat ~blk ~cls:hc;
        if code = Events.ward_grant then Sink_heatmap.mark_ward t.heat ~blk
      end;
      push_record t ~code ~core ~blk ~arg
    end
  end

let region t ~core ~lo ~hi ~exit ~flushed =
  if t.lvl >= 1 then begin
    let code = if exit then Events.ward_exit else Events.ward_enter in
    bump t code (if exit then flushed else 0);
    if t.lvl >= 2 then begin
      Sink_heatmap.touch_region t.heat ~lo ~hi ~exit ~flushed;
      let blk = Warden_mem.Addr.block_of lo in
      let arg =
        if exit then flushed
        else List.length (Warden_mem.Addr.blocks_spanning lo (hi - lo))
      in
      push_record t ~code ~core ~blk ~arg
    end
  end

let count t code =
  if code < 0 || code >= Events.count then invalid_arg "Obs.count: bad code"
  else t.counts.(code)

let sum t code =
  if code < 0 || code >= Events.count then invalid_arg "Obs.sum: bad code"
  else t.sums.(code)

let hist t =
  let h = t.hist in
  Hist.set h ~cls:Events.l1_hit ~value:t.l1_lat
    ~count:t.counts.(Events.l1_hit);
  Hist.set h ~cls:Events.l2_hit ~value:t.l2_lat
    ~count:t.counts.(Events.l2_hit);
  h

let heat t = t.heat
let chrome t = t.chrome

let render_summary t =
  let buf = Buffer.create 1024 in
  let rows =
    List.filter_map
      (fun code ->
        if t.counts.(code) = 0 then None
        else Some [ Events.name code; string_of_int t.counts.(code) ])
      (List.init Events.count Fun.id)
  in
  Buffer.add_string buf "Event counts\n";
  if rows = [] then Buffer.add_string buf "(no events recorded)\n"
  else Buffer.add_string buf (Warden_util.Table.render ~header:[ "event"; "count" ] ~rows);
  List.iter
    (fun code ->
      let s = Hist.render (hist t) ~cls:code ~title:(Events.name code) in
      if s <> "" then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf s
      end)
    [ Events.l1_hit; Events.l2_hit; Events.miss; Events.upgrade;
      Events.ward_grant; Events.sb_stall ];
  if t.lvl >= 2 then begin
    Buffer.add_string buf "\nHottest blocks\n";
    Buffer.add_string buf (Sink_heatmap.render_blocks t.heat ~n:16);
    Buffer.add_string buf "\nWARD regions\n";
    Buffer.add_string buf (Sink_heatmap.render_regions t.heat)
  end
  else
    Buffer.add_string buf
      "\nHottest blocks and WARD regions: recorded at the full level only (--obs full)\n";
  Buffer.contents buf
