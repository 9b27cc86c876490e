open Warden_machine

type t = {
  cfg_level : Config.obs_level;
  lvl : int; (* 0 off / 1 counters / 2 full: branch on an int, not a sum *)
  ring : Ring.t;
  counts : int array; (* indexed by event code *)
  sums : int array; (* arg-weighted totals, same indexing *)
  hist : Hist.t;
  heat : Sink_heatmap.t;
  chrome : Sink_chrome.t;
  mutable now : int;
  mutable seq : int;
}

let ring_capacity = 8192

let create (cfg : Config.t) =
  let lvl =
    match cfg.obs_level with Obs_off -> 0 | Obs_counters -> 1 | Obs_full -> 2
  in
  {
    cfg_level = cfg.obs_level;
    lvl;
    ring = Ring.create ~capacity:(if lvl >= 2 then ring_capacity else 16);
    counts = Array.make Events.count 0;
    sums = Array.make Events.count 0;
    hist = Hist.create ~classes:Events.count;
    heat = Sink_heatmap.create ();
    chrome = Sink_chrome.create ();
    now = 0;
    seq = 0;
  }

let enabled t = t.lvl >= 1
let full t = t.lvl >= 2
let level t = t.cfg_level
let set_now t now = t.now <- now

let fold t =
  let chrome = t.chrome in
  Ring.drain t.ring (fun ~code ~cycle ~core ~blk ~arg ~seq ->
      Sink_chrome.add chrome ~code ~cycle ~core ~blk ~arg ~seq)

(* Ring full: fold everything into the Chrome sink and retry — records are
   only ever lost once the (million-record) Chrome sink itself caps out,
   and then they are counted as dropped there. *)
let push_record t ~code ~core ~blk ~arg =
  let seq = t.seq in
  t.seq <- seq + 1;
  if not (Ring.push t.ring ~code ~cycle:t.now ~core ~blk ~arg ~seq) then begin
    fold t;
    ignore (Ring.push t.ring ~code ~cycle:t.now ~core ~blk ~arg ~seq)
  end

let bump t code arg =
  Array.unsafe_set t.counts code (Array.unsafe_get t.counts code + 1);
  Array.unsafe_set t.sums code (Array.unsafe_get t.sums code + arg)

let access t ~cls ~core ~blk ~lat =
  if t.lvl >= 1 then begin
    bump t cls lat;
    Hist.add t.hist ~cls lat;
    let hc = Events.heat_class cls in
    if hc >= 0 then Sink_heatmap.touch_block t.heat ~blk ~cls:hc;
    if t.lvl >= 2 && Events.traced cls then
      push_record t ~code:cls ~core ~blk ~arg:lat
  end

let event t ~code ~core ~blk ~arg =
  if t.lvl >= 1 then begin
    bump t code arg;
    if Events.duration_event code then Hist.add t.hist ~cls:code arg;
    let hc = Events.heat_class code in
    if hc >= 0 then begin
      Sink_heatmap.touch_block t.heat ~blk ~cls:hc;
      if code = Events.ward_grant then Sink_heatmap.mark_ward t.heat ~blk
    end;
    if t.lvl >= 2 then push_record t ~code ~core ~blk ~arg
  end

let region t ~core ~lo ~hi ~exit ~flushed =
  if t.lvl >= 1 then begin
    let code = if exit then Events.ward_exit else Events.ward_enter in
    bump t code (if exit then flushed else 0);
    Sink_heatmap.touch_region t.heat ~lo ~hi ~exit ~flushed;
    if t.lvl >= 2 then
      let blk = Warden_mem.Addr.block_of lo in
      let arg =
        if exit then flushed
        else List.length (Warden_mem.Addr.blocks_spanning lo (hi - lo))
      in
      push_record t ~code ~core ~blk ~arg
  end

let count t code =
  if code < 0 || code >= Events.count then invalid_arg "Obs.count: bad code"
  else t.counts.(code)

let sum t code =
  if code < 0 || code >= Events.count then invalid_arg "Obs.sum: bad code"
  else t.sums.(code)

let hist t = t.hist
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
      let s = Hist.render t.hist ~cls:code ~title:(Events.name code) in
      if s <> "" then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf s
      end)
    [ Events.l1_hit; Events.l2_hit; Events.miss; Events.upgrade;
      Events.ward_grant; Events.sb_stall ];
  Buffer.add_string buf "\nHottest blocks\n";
  Buffer.add_string buf (Sink_heatmap.render_blocks t.heat ~n:16);
  Buffer.add_string buf "\nWARD regions\n";
  Buffer.add_string buf (Sink_heatmap.render_regions t.heat);
  Buffer.contents buf
