let stride = 6
let default_capacity = 1 lsl 20

type t = {
  mutable buf : int array;
  cap : int; (* records *)
  mutable len : int; (* records *)
  mutable dropped : int;
}

let create ?(capacity = default_capacity) () =
  { buf = [||]; cap = max 16 capacity; len = 0; dropped = 0 }

let add t ~code ~cycle ~core ~blk ~arg ~seq =
  if t.len >= t.cap then t.dropped <- t.dropped + 1
  else begin
    let o = t.len * stride in
    if o >= Array.length t.buf then
      t.buf <-
        Array.append t.buf
          (Array.make (max (256 * stride) (Array.length t.buf)) 0);
    let b = t.buf in
    b.(o) <- code;
    b.(o + 1) <- cycle;
    b.(o + 2) <- core;
    b.(o + 3) <- blk;
    b.(o + 4) <- arg;
    b.(o + 5) <- seq;
    t.len <- t.len + 1
  end

let length t = t.len
let dropped t = t.dropped

(* Content-first sort key: emission order (seq) only breaks ties
   between bit-identical records, where the tie is harmless. *)
let compare_records b oa ob =
  let cmp_at off =
    compare (Array.unsafe_get b (oa + off)) (Array.unsafe_get b (ob + off))
  in
  let c = cmp_at 1 in (* cycle *)
  if c <> 0 then c
  else
    let c = cmp_at 0 in (* code *)
    if c <> 0 then c
    else
      let c = cmp_at 2 in (* core *)
      if c <> 0 then c
      else
        let c = cmp_at 3 in (* blk *)
        if c <> 0 then c
        else
          let c = cmp_at 4 in (* arg *)
          if c <> 0 then c else cmp_at 5

let sorted_order t =
  let idx = Array.init t.len (fun i -> i * stride) in
  Array.sort (compare_records t.buf) idx;
  idx

let write_record buf ~pid b o =
  let code = b.(o)
  and cycle = b.(o + 1)
  and core = b.(o + 2)
  and blk = b.(o + 3)
  and arg = b.(o + 4) in
  let name = Events.name code in
  if Events.duration_event code then
    (* [ts, ts+dur): latency-carrying events render as slices. *)
    Buffer.add_string buf
      (Printf.sprintf
         {|,
{"name":"%s","cat":"coh","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"blk":%d}}|}
         name cycle (max 1 arg) pid core blk)
  else
    Buffer.add_string buf
      (Printf.sprintf
         {|,
{"name":"%s","cat":"coh","ph":"i","ts":%d,"s":"t","pid":%d,"tid":%d,"args":{"blk":%d,"n":%d}}|}
         name cycle pid core blk arg)

let write buf ~runs =
  Buffer.add_string buf {|{"displayTimeUnit":"ms","traceEvents":[
{"name":"clock_sync","ph":"M","pid":0,"tid":0,"args":{"unit":"1 cycle = 1 us"}}|};
  List.iter
    (fun (pid, pname, t) ->
      Buffer.add_string buf
        (Printf.sprintf
           {|,
{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"%s"}}|}
           pid pname);
      let idx = sorted_order t in
      Array.iter (fun o -> write_record buf ~pid t.buf o) idx)
    runs;
  Buffer.add_string buf "\n]}\n"
