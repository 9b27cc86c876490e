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

let clear_way t w =
  t.blks.(w) <- -1;
  if has_payloads t then t.payloads.(w) <- -1;
  t.last_use.(w) <- 0

let remove t blk =
  let w = peek_way t blk in
  hit w
  && begin
       clear_way t w;
       true
     end

(* [find_way] then [remove] in one probe. The hit would rotate into way
   0 and then be cleared there, so way 0's contents move into the hit way
   and way 0 is left empty, after the same LRU tick. *)
let take t blk =
  let w = peek_way t blk in
  if not (hit w) then -1
  else begin
    t.tick <- t.tick + 1;
    let v = if has_payloads t then Array.unsafe_get t.payloads w else -1 in
    let base = set_index t blk * t.nways in
    if w > base then begin
      t.blks.(w) <- t.blks.(base);
      if has_payloads t then t.payloads.(w) <- t.payloads.(base);
      t.last_use.(w) <- t.last_use.(base)
    end;
    clear_way t base;
    v
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

(* --- snapshot (DESIGN.md §15) ------------------------------------------- *)

(* The format, shared with Csa: geometry, the LRU clock, the resident
   way count, then each resident way as (set, way, block, last use,
   payload) in (set, way) order. An empty way always holds -1 and
   recency 0, so that is all the state: a restored cache replays later
   probes (hits, victims, LRU decisions) bit-identically. *)
let save_ways w ~sets ~ways ~tick ~count iter ~elt =
  let module B = Warden_util.Bin in
  List.iter (B.w_int w) [ sets; ways; tick; count ];
  iter (fun set way blk last_use payload ->
      List.iter (B.w_int w) [ set; way; blk; last_use ];
      elt w payload)

let load_ways name r ~sets ~ways ~elt f =
  let module B = Warden_util.Bin in
  let corrupt what = B.corrupt (name ^ ": " ^ what) in
  let s = B.r_int r and w = B.r_int r in
  if s <> sets || w <> ways then corrupt "geometry mismatch";
  let tick = B.r_int r and n = B.r_int r in
  if n < 0 || n > sets * ways then corrupt "bad way count";
  let prev = ref (-1) in
  for _ = 1 to n do
    let set = B.r_int r and way = B.r_int r in
    if way < 0 || way >= ways then corrupt "way out of range";
    if set < 0 || set >= sets then corrupt "set out of range";
    let i = (set * ways) + way in
    if i <= !prev then corrupt "ways not in (set, way) order";
    prev := i;
    let blk = B.r_int r and lu = B.r_int r in
    if blk < 0 || blk land (sets - 1) <> set then
      corrupt "block outside its set";
    if lu > tick then corrupt "recency ahead of the clock";
    if lu < 1 then corrupt "bad recency";
    f set way blk lu (elt r)
  done;
  tick

let save t w ~elt =
  let count =
    Array.fold_left (fun n b -> if b = -1 then n else n + 1) 0 t.blks
  in
  save_ways w ~sets:t.nsets ~ways:t.nways ~tick:t.tick ~count
    (fun f ->
      Array.iteri
        (fun i blk ->
          if blk <> -1 then
            f (i / t.nways) (i mod t.nways) blk t.last_use.(i)
              (if has_payloads t then t.payloads.(i) else -1))
        t.blks)
    ~elt:(if has_payloads t then elt else fun _ _ -> ())

(* The ways are read into fresh arrays and installed only once all of
   them pass, so a malformed snapshot leaves the cache as it was. *)
let restore t r ~elt =
  let fresh = create ~sets:t.nsets ~ways:t.nways ~payloads:(has_payloads t) in
  let tick =
    load_ways "Sa" r ~sets:t.nsets ~ways:t.nways
      ~elt:(if has_payloads t then elt else fun _ -> -1)
      (fun set way blk lu payload ->
        if mem fresh blk then Warden_util.Bin.corrupt "Sa: duplicate block";
        set_way fresh ((set * t.nways) + way) blk payload;
        fresh.last_use.((set * t.nways) + way) <- lu)
  in
  t.tick <- tick;
  Array.blit fresh.blks 0 t.blks 0 (Array.length t.blks);
  Array.blit fresh.payloads 0 t.payloads 0 (Array.length t.payloads);
  Array.blit fresh.last_use 0 t.last_use 0 (Array.length t.last_use)
