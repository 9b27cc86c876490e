(* Ways live in flat parallel arrays (blks / payloads / last_use indexed
   by set * nways + way): creating a cache is three [Array.make] calls,
   not one record per way. Every array holds immediate ints, so the MRU
   rotation below swaps ints with no write barrier. A tags-only array
   has an empty [payloads]. A hit returns the way's flat index ([no_way]
   = -1 on miss) and rotates the hit into way 0 so the next probe of a
   hot block succeeds on the first comparison. *)

type way = int

let no_way = -1

type t = {
  nsets : int;
  nways : int;
  blks : int array; (* -1 = empty; set s occupies [s*nways, (s+1)*nways) *)
  payloads : int array; (* empty for a tags-only array *)
  last_use : int array;
  mutable tick : int; (* monotonically increasing LRU clock *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ~sets ~ways ~payloads =
  if not (is_pow2 sets) then invalid_arg "Sa.create: sets must be a power of two";
  if ways <= 0 then invalid_arg "Sa.create: ways";
  let cap = sets * ways in
  {
    nsets = sets;
    nways = ways;
    blks = Array.make cap (-1);
    payloads = (if payloads then Array.make cap (-1) else [||]);
    last_use = Array.make cap 0;
    tick = 0;
  }

let[@inline] set_index t blk = blk land (t.nsets - 1)
let[@inline] has_payloads t = Array.length t.payloads > 0
let[@inline] hit w = w >= 0
let[@inline] value t w = Array.unsafe_get t.payloads w

(* Pure probe: no LRU refresh, no MRU rotation. Scans with a local loop —
   an inner recursive function here would allocate a closure per probe. *)
let[@inline] peek_way t blk =
  let base = set_index t blk * t.nways in
  let blks = t.blks in
  let last = base + t.nways in
  let i = ref base in
  while !i < last && Array.unsafe_get blks !i <> blk do incr i done;
  if !i < last then !i else no_way

let[@inline] swap a i j =
  let x = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j x

(* Swap the full contents of two ways. *)
let[@inline] swap_ways t a b =
  if a <> b then begin
    swap t.blks a b;
    if has_payloads t then swap t.payloads a b;
    swap t.last_use a b
  end

(* Hit probe: refreshes LRU and rotates the hit into way 0 (MRU-first
   layout), so a re-probe of the same hot block exits on the first
   comparison. LRU ordering is untouched: recency lives in [last_use],
   not in position. *)
let[@inline] promote_way t blk w =
  t.tick <- t.tick + 1;
  let base = set_index t blk * t.nways in
  if w > base then swap_ways t base w;
  Array.unsafe_set t.last_use base t.tick;
  base

let[@inline] find_way t blk =
  let w = peek_way t blk in
  if w < 0 then no_way else promote_way t blk w

let[@inline] touch t blk = hit (find_way t blk)
let mem t blk = hit (peek_way t blk)

(* The first empty way, or else the LRU one (the lowest on ties). *)
let victim_way t set =
  let base = set * t.nways in
  let last = base + t.nways in
  let best = ref base and i = ref base in
  while !i < last && Array.unsafe_get t.blks !i <> -1 do
    if Array.unsafe_get t.last_use !i < Array.unsafe_get t.last_use !best then
      best := !i;
    incr i
  done;
  if !i < last then !i else !best

let set_way t w blk payload =
  t.blks.(w) <- blk;
  if has_payloads t then t.payloads.(w) <- payload;
  t.last_use.(w) <- t.tick

let insert t blk payload =
  t.tick <- t.tick + 1;
  let w = peek_way t blk in
  if hit w then begin
    set_way t w blk payload;
    None
  end
  else begin
    let w = victim_way t (set_index t blk) in
    let evicted =
      if t.blks.(w) = -1 then None
      else Some (t.blks.(w), if has_payloads t then t.payloads.(w) else -1)
    in
    set_way t w blk payload;
    evicted
  end

(* [insert] for a block the caller just probed absent, discarding the
   eviction: one victim scan, no re-probe, no option allocation. Same
   tick consumption and way writes as [insert] on the absent path, so
   cache state evolves identically. *)
let insert_absent t blk payload =
  t.tick <- t.tick + 1;
  set_way t (victim_way t (set_index t blk)) blk payload

let remove t blk =
  let w = peek_way t blk in
  if hit w then begin
    t.blks.(w) <- -1;
    if has_payloads t then t.payloads.(w) <- -1;
    t.last_use.(w) <- 0
  end

let copy t =
  {
    t with
    blks = Array.copy t.blks;
    payloads = Array.copy t.payloads;
    last_use = Array.copy t.last_use;
  }

let iter t f =
  for i = 0 to Array.length t.blks - 1 do
    let blk = Array.unsafe_get t.blks i in
    if blk <> -1 then f blk (if has_payloads t then t.payloads.(i) else -1)
  done

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
  if has_payloads t then
    for i = 0 to Array.length t.blks - 1 do
      if Array.unsafe_get t.blks i <> -1 then elt w t.payloads.(i)
    done

let restore t r ~elt =
  let module B = Warden_util.Bin in
  let sets = B.r_int r and ways = B.r_int r in
  if sets <> t.nsets || ways <> t.nways then
    B.corrupt "Sa: geometry mismatch";
  let tick = B.r_int r in
  let blks = B.r_int_array r in
  let last_use = B.r_int_array r in
  if Array.length blks <> Array.length t.blks then B.corrupt "Sa: bad tags";
  if Array.length last_use <> Array.length t.last_use then
    B.corrupt "Sa: bad recency";
  t.tick <- tick;
  Array.blit blks 0 t.blks 0 (Array.length blks);
  Array.blit last_use 0 t.last_use 0 (Array.length last_use);
  if has_payloads t then
    for i = 0 to Array.length t.blks - 1 do
      t.payloads.(i) <- (if Array.unsafe_get t.blks i <> -1 then elt r else -1)
    done
