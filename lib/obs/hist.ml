let nbuckets = 32

type t = {
  mutable buckets : int array; (* classes * nbuckets, flat; [||] until used *)
  counts : int array;
  sums : int array;
  classes : int;
}

let create ~classes =
  {
    buckets = [||];
    counts = Array.make classes 0;
    sums = Array.make classes 0;
    classes;
  }

(* floor(log2 v) by halving the range: six steps and no loop, since a
   miss's histogram update is on the recorder's per-miss path. *)
let bucket_of v =
  if v < 2 then 0
  else begin
    let v = ref v and b = ref 0 in
    if !v lsr 32 <> 0 then begin v := !v lsr 32; b := 32 end;
    if !v lsr 16 <> 0 then begin v := !v lsr 16; b := !b + 16 end;
    if !v lsr 8 <> 0 then begin v := !v lsr 8; b := !b + 8 end;
    if !v lsr 4 <> 0 then begin v := !v lsr 4; b := !b + 4 end;
    if !v lsr 2 <> 0 then begin v := !v lsr 2; b := !b + 2 end;
    if !v lsr 1 <> 0 then incr b;
    if !b >= nbuckets then nbuckets - 1 else !b
  end

let add t ~cls v =
  if Array.length t.buckets = 0 then
    t.buckets <- Array.make (t.classes * nbuckets) 0;
  let b = bucket_of v in
  let i = (cls * nbuckets) + b in
  Array.unsafe_set t.buckets i (Array.unsafe_get t.buckets i + 1);
  Array.unsafe_set t.counts cls (Array.unsafe_get t.counts cls + 1);
  Array.unsafe_set t.sums cls (Array.unsafe_get t.sums cls + v)

let check_cls t cls =
  if cls < 0 || cls >= t.classes then invalid_arg "Hist: bad class"

let set t ~cls ~value ~count =
  check_cls t cls;
  if count > 0 || t.counts.(cls) > 0 then begin
    if Array.length t.buckets = 0 then
      t.buckets <- Array.make (t.classes * nbuckets) 0;
    Array.fill t.buckets (cls * nbuckets) nbuckets 0;
    t.buckets.((cls * nbuckets) + bucket_of value) <- count;
    t.counts.(cls) <- count;
    t.sums.(cls) <- count * value
  end

let get t ~cls ~bucket =
  check_cls t cls;
  if bucket < 0 || bucket >= nbuckets then invalid_arg "Hist: bad bucket";
  if t.counts.(cls) = 0 then 0 else t.buckets.((cls * nbuckets) + bucket)

let count t ~cls =
  check_cls t cls;
  t.counts.(cls)

let sum t ~cls =
  check_cls t cls;
  t.sums.(cls)

let mean t ~cls =
  check_cls t cls;
  if t.counts.(cls) = 0 then 0.
  else float_of_int t.sums.(cls) /. float_of_int t.counts.(cls)

let percentile t ~cls p =
  check_cls t cls;
  if not (p >= 0. && p <= 100.) then invalid_arg "Hist: bad percentile";
  let n = t.counts.(cls) in
  if n = 0 then 0.
  else begin
    (* Walk buckets until the cumulative count covers the target rank,
       then interpolate linearly inside the covering bucket. Exact when
       a class has a single occupied bucket of identical values only up
       to the bucket's width; the log2 layout bounds the relative error
       by the bucket resolution, which is all the tail reporter needs. *)
    let rank = p /. 100. *. float_of_int n in
    let rec go b cum =
      if b >= nbuckets then float_of_int (1 lsl nbuckets)
      else
        let c = t.buckets.((cls * nbuckets) + b) in
        if c = 0 || float_of_int (cum + c) < rank then go (b + 1) (cum + c)
        else begin
          let lo = if b = 0 then 0. else float_of_int (1 lsl b) in
          let hi = float_of_int (1 lsl (b + 1)) in
          let frac = (rank -. float_of_int cum) /. float_of_int c in
          let frac = if frac < 0. then 0. else if frac > 1. then 1. else frac in
          lo +. (frac *. (hi -. lo))
        end
    in
    go 0 0
  end

let render t ~cls ~title =
  check_cls t cls;
  if t.counts.(cls) = 0 then ""
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "%s (%d samples, mean %.1f)\n" title t.counts.(cls)
         (mean t ~cls));
    let max_count = ref 1 in
    for b = 0 to nbuckets - 1 do
      max_count := max !max_count t.buckets.((cls * nbuckets) + b)
    done;
    for b = 0 to nbuckets - 1 do
      let c = t.buckets.((cls * nbuckets) + b) in
      if c > 0 then begin
        let lo = if b = 0 then 0 else 1 lsl b in
        let hi = 1 lsl (b + 1) in
        let bar = String.make (max 1 (c * 40 / !max_count)) '#' in
        Buffer.add_string buf
          (Printf.sprintf "  [%7d,%8d) %8d %s\n" lo hi c bar)
      end
    done;
    Buffer.contents buf
  end
