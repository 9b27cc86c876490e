(* Ways live in flat parallel arrays (blks / payloads / last_use indexed
   by set * nways + way): creating a cache is three [Array.make] calls,
   not one record per way — an engine's LLC alone has ~half a million
   ways, so per-way records made simulator construction cost as much as
   short runs. Absent ways hold the [dummy] payload supplied at [create];
   no ['a option] boxing anywhere. A hit returns the way's flat index
   ([no_way] = -1 on miss) and rotates the hit into way 0 so the next
   probe of a hot block succeeds on the first comparison. *)

type way = int

let no_way = -1

type 'a t = {
  nsets : int;
  nways : int;
  blks : int array; (* -1 = empty; set s occupies [s*nways, (s+1)*nways) *)
  payloads : 'a array;
  last_use : int array;
  dummy : 'a;
  mutable tick : int; (* monotonically increasing LRU clock *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ~sets ~ways ~dummy =
  if not (is_pow2 sets) then invalid_arg "Sa.create: sets must be a power of two";
  if ways <= 0 then invalid_arg "Sa.create: ways";
  let cap = sets * ways in
  {
    nsets = sets;
    nways = ways;
    blks = Array.make cap (-1);
    payloads = Array.make cap dummy;
    last_use = Array.make cap 0;
    dummy;
    tick = 0;
  }

let sets t = t.nsets
let ways t = t.nways
let capacity_blocks t = t.nsets * t.nways
let set_index t blk = blk land (t.nsets - 1)
let hit w = w >= 0
let value t w = Array.unsafe_get t.payloads w

(* Pure probe: no LRU refresh, no MRU rotation. Scans with a local loop —
   an inner recursive function here would allocate a closure per probe. *)
let peek_way t blk =
  let base = set_index t blk * t.nways in
  let blks = t.blks in
  let last = base + t.nways in
  let i = ref base in
  while !i < last && Array.unsafe_get blks !i <> blk do incr i done;
  if !i < last then !i else no_way

(* Swap the full contents of two ways. *)
let swap_ways t a b =
  if a <> b then begin
    let blk = t.blks.(a) and payload = t.payloads.(a) and lu = t.last_use.(a) in
    t.blks.(a) <- t.blks.(b);
    t.payloads.(a) <- t.payloads.(b);
    t.last_use.(a) <- t.last_use.(b);
    t.blks.(b) <- blk;
    t.payloads.(b) <- payload;
    t.last_use.(b) <- lu
  end

(* Hit probe: refreshes LRU and rotates the hit into way 0 (MRU-first
   layout), so a re-probe of the same hot block exits on the first
   comparison. LRU ordering is untouched: recency lives in [last_use],
   not in position. *)
let promote_way t blk w =
  t.tick <- t.tick + 1;
  let base = set_index t blk * t.nways in
  if w > base then swap_ways t base w;
  Array.unsafe_set t.last_use base t.tick;
  base

let find_way t blk =
  let w = peek_way t blk in
  if w < 0 then no_way else promote_way t blk w

let touch_way t w =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.last_use w t.tick

let find t blk =
  let w = find_way t blk in
  if hit w then Some t.payloads.(w) else None

let peek t blk =
  let w = peek_way t blk in
  if hit w then Some t.payloads.(w) else None

let touch t blk = hit (find_way t blk)
let mem t blk = hit (peek_way t blk)

(* The LRU victim among occupied ways, or the first empty way. *)
let victim_way t set =
  let base = set * t.nways in
  let best = ref base in
  (try
     for i = base to base + t.nways - 1 do
       if t.blks.(i) = -1 then begin
         best := i;
         raise Exit
       end
       else if t.last_use.(i) < t.last_use.(!best) then best := i
     done
   with Exit -> ());
  !best

let would_evict t blk =
  if hit (peek_way t blk) then None
  else
    let w = victim_way t (set_index t blk) in
    if t.blks.(w) = -1 then None else Some (t.blks.(w), t.payloads.(w))

let insert t blk payload =
  t.tick <- t.tick + 1;
  let w = peek_way t blk in
  if hit w then begin
    t.payloads.(w) <- payload;
    t.last_use.(w) <- t.tick;
    None
  end
  else begin
    let w = victim_way t (set_index t blk) in
    let evicted =
      if t.blks.(w) = -1 then None else Some (t.blks.(w), t.payloads.(w))
    in
    t.blks.(w) <- blk;
    t.payloads.(w) <- payload;
    t.last_use.(w) <- t.tick;
    evicted
  end

(* [insert] for a block the caller just probed absent, discarding the
   eviction: one victim scan, no re-probe, no option allocation. Same
   tick consumption and way writes as [insert] on the absent path, so
   cache state evolves identically. *)
let insert_absent t blk payload =
  t.tick <- t.tick + 1;
  let w = victim_way t (set_index t blk) in
  t.blks.(w) <- blk;
  t.payloads.(w) <- payload;
  t.last_use.(w) <- t.tick

let remove t blk =
  let w = peek_way t blk in
  if not (hit w) then None
  else begin
    let p = t.payloads.(w) in
    t.blks.(w) <- -1;
    t.payloads.(w) <- t.dummy;
    t.last_use.(w) <- 0;
    Some p
  end

let iter t f =
  for i = 0 to Array.length t.blks - 1 do
    let blk = Array.unsafe_get t.blks i in
    if blk <> -1 then f blk t.payloads.(i)
  done

let iter_range t ~lo_block ~hi_block f =
  iter t (fun blk p -> if blk >= lo_block && blk < hi_block then f blk p)

let population t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let clear t =
  Array.fill t.blks 0 (Array.length t.blks) (-1);
  Array.fill t.payloads 0 (Array.length t.payloads) t.dummy;
  Array.fill t.last_use 0 (Array.length t.last_use) 0;
  t.tick <- 0

(* Snapshot: geometry (validated on restore), the LRU clock, the tag and
   recency arrays wholesale, then the payload of every resident way in
   flat ascending order. The layout (way positions, rotation state) is
   saved exactly, so a restored cache replays subsequent probes — hits,
   victims, LRU decisions — bit-identically. *)
let save t w ~elt =
  let module B = Warden_util.Bin in
  B.w_int w t.nsets;
  B.w_int w t.nways;
  B.w_int w t.tick;
  B.w_int_array w t.blks;
  B.w_int_array w t.last_use;
  for i = 0 to Array.length t.blks - 1 do
    if Array.unsafe_get t.blks i <> -1 then elt w t.payloads.(i)
  done

let restore t r ~elt =
  let module B = Warden_util.Bin in
  let sets = B.r_int r and ways = B.r_int r in
  if sets <> t.nsets || ways <> t.nways then
    B.corrupt "Sa: geometry mismatch";
  t.tick <- B.r_int r;
  let blks = B.r_int_array r in
  let last_use = B.r_int_array r in
  if Array.length blks <> Array.length t.blks then B.corrupt "Sa: bad tags";
  Array.blit blks 0 t.blks 0 (Array.length blks);
  Array.blit last_use 0 t.last_use 0 (Array.length last_use);
  Array.fill t.payloads 0 (Array.length t.payloads) t.dummy;
  for i = 0 to Array.length t.blks - 1 do
    if Array.unsafe_get t.blks i <> -1 then t.payloads.(i) <- elt r
  done
