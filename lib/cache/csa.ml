(* Set-associative LLC slice sized by the lines it holds. Sa's exact
   per-set semantics (same LRU clock, same MRU-first rotation, same
   victim tie-breaks) over three structures:

   - an open-addressing index from block to entry, [blk; entry] pairs
     with linear probing and backward-shift deletion (a victim's block
     leaves the index, its successor takes the entry). Unlike
     [Warden_util.Itab] it deletes, keeps key and value in one cache
     line, and holds no storage until the first insert;
   - a dense entry array, [stride] ints per resident line: block,
     payload, last use, way, and the next member of its set;
   - per-set metadata in chunks of 32 sets, allocated on the first
     insert into any of their sets: filled-way count, the entry at way
     0, and the head of the set's member chain. The table of chunks is
     itself allocated on the first insert.

   A workload fills a few percent of a Table-2 LLC (30 MB, 20 ways per
   socket), so storage that scales with resident lines is a fraction of
   per-way arrays for every touched chunk. Each entry keeps its way
   number so the MRU rotation and the (set, way) visit order are Sa's,
   and so are the snapshot bytes: a hit at way w swaps way numbers with
   the way-0 entry, exactly as Sa's arrays swap contents. Nothing is
   ever removed, so a set's ways fill as a prefix and a fill takes way
   [count] while the set has room.

   Payloads are [int] slots, as in [Sa]. *)

let stride = 5
let f_blk = 0
let f_payload = 1
let f_last_use = 2
let f_way = 3
let f_next = 4

(* Per-set metadata, [meta] ints per set inside a chunk. *)
let meta = 3
let m_count = 0
let m_way0 = 1
let m_head = 2

type t = {
  nsets : int;
  nways : int;
  chunk_lg : int; (* log2 of the sets per chunk *)
  mutable chunks : int array array; (* [||] = never inserted into *)
  mutable index : int array; (* [blk; entry] pairs, blk -1 = empty *)
  mutable shift : int; (* 63 - log2 of the index's slot count *)
  mutable ents : int array;
  mutable n : int; (* entries in use, also the index's key count *)
  mutable tick : int; (* monotonically increasing LRU clock, whole cache *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* 32 sets per chunk: 96 ints of metadata, so a sparse working set
   materializes few, and [chunks_allocated] keeps its old meaning. *)
let default_chunk_sets = 32

(* Odd 63-bit multiplier (SplitMix finalizer constant); the top bits of
   blk * factor index the table, as in Dirstate. *)
let factor = 0x2545F4914F6CDD1D

let create ~sets ~ways =
  if not (is_pow2 sets) then
    invalid_arg "Csa.create: sets must be a power of two";
  if ways <= 0 then invalid_arg "Csa.create: ways";
  let chunk_sets = min sets default_chunk_sets in
  {
    nsets = sets;
    nways = ways;
    chunk_lg = log2 chunk_sets;
    chunks = [||];
    index = [||];
    shift = 63;
    ents = [||];
    n = 0;
    tick = 0;
  }

let[@inline] set_index t blk = blk land (t.nsets - 1)
let[@inline] chunk_of t set = Array.unsafe_get t.chunks (set lsr t.chunk_lg)
let[@inline] meta_base t set = (set land ((1 lsl t.chunk_lg) - 1)) * meta

let chunks_total t = t.nsets lsr t.chunk_lg

let materialize t set =
  if Array.length t.chunks = 0 then
    t.chunks <- Array.make (chunks_total t) [||];
  let ci = set lsr t.chunk_lg in
  let c = t.chunks.(ci) in
  if Array.length c > 0 then c
  else begin
    let c = Array.make ((1 lsl t.chunk_lg) * meta) (-1) in
    for s = 0 to (1 lsl t.chunk_lg) - 1 do
      c.((s * meta) + m_count) <- 0
    done;
    t.chunks.(ci) <- c;
    c
  end

(* --- index ------------------------------------------------------------- *)

let[@inline] home t blk = (blk * factor) lsr t.shift

(* The entry holding [blk], or -1. *)
let lookup t blk =
  if t.n = 0 then -1
  else begin
    let idx = t.index in
    let m = (Array.length idx lsr 1) - 1 in
    let i = ref (home t blk) in
    while
      let k = Array.unsafe_get idx (2 * !i) in
      k <> blk && k <> -1
    do
      i := (!i + 1) land m
    done;
    if Array.unsafe_get idx (2 * !i) = blk then
      Array.unsafe_get idx ((2 * !i) + 1)
    else -1
  end

(* Store [blk -> e]; [blk] must be absent and a slot free. *)
let place t blk e =
  let idx = t.index in
  let m = (Array.length idx lsr 1) - 1 in
  let i = ref (home t blk) in
  while Array.unsafe_get idx (2 * !i) <> -1 do
    i := (!i + 1) land m
  done;
  idx.(2 * !i) <- blk;
  idx.((2 * !i) + 1) <- e

(* The table holds at most every way of the cache, so it never needs
   more than twice that many slots; it starts at 16 or that bound. *)
let grow_index t =
  let old = t.index in
  let cap = Array.length old lsr 1 in
  let bound = 2 lsl log2 ((2 * t.nsets * t.nways) - 1) in
  let cap' = if cap = 0 then min 16 bound else 2 * cap in
  t.index <- Array.make (2 * cap') (-1);
  t.shift <- 63 - log2 cap';
  for i = 0 to cap - 1 do
    let k = old.(2 * i) in
    if k <> -1 then place t k old.((2 * i) + 1)
  done

let add_key t blk e =
  if 2 * (t.n + 1) > Array.length t.index lsr 1 then grow_index t;
  place t blk e

(* Backward-shift deletion: later keys of the run move up into the hole
   unless their home lies cyclically in (hole, slot]. *)
let remove_key t blk =
  let idx = t.index in
  let m = (Array.length idx lsr 1) - 1 in
  let i = ref (home t blk) in
  while idx.(2 * !i) <> blk do
    i := (!i + 1) land m
  done;
  let j = ref !i and scanning = ref true in
  while !scanning do
    j := (!j + 1) land m;
    let k = idx.(2 * !j) in
    if k = -1 then scanning := false
    else begin
      let h = home t k in
      let stays = if !i <= !j then !i < h && h <= !j else !i < h || h <= !j in
      if not stays then begin
        idx.(2 * !i) <- k;
        idx.((2 * !i) + 1) <- idx.((2 * !j) + 1);
        i := !j
      end
    end
  done;
  idx.(2 * !i) <- -1

(* --- entries ------------------------------------------------------------ *)

(* A new entry for [blk] at [way] of the set whose metadata starts at
   [mb] in [c], linked at the head of the set's chain. *)
let append t c mb blk payload last_use way =
  if (t.n + 1) * stride > Array.length t.ents then begin
    let cap = Array.length t.ents / stride in
    let cap' = min (max 8 (2 * cap)) (t.nsets * t.nways) in
    let ents = Array.make (cap' * stride) 0 in
    Array.blit t.ents 0 ents 0 (t.n * stride);
    t.ents <- ents
  end;
  let e = t.n in
  let b = e * stride in
  let ents = t.ents in
  ents.(b + f_blk) <- blk;
  ents.(b + f_payload) <- payload;
  ents.(b + f_last_use) <- last_use;
  ents.(b + f_way) <- way;
  ents.(b + f_next) <- c.(mb + m_head);
  c.(mb + m_head) <- e;
  if way = 0 then c.(mb + m_way0) <- e;
  c.(mb + m_count) <- c.(mb + m_count) + 1;
  t.n <- e + 1;
  add_key t blk e

(* Hit probe with Sa.find_way's exact bookkeeping: tick, MRU rotation
   into way 0, recency refresh. Returns the payload, or -1 on a miss. *)
let find t blk =
  let e = lookup t blk in
  if e < 0 then -1
  else begin
    t.tick <- t.tick + 1;
    let ents = t.ents in
    let b = e * stride in
    let w = Array.unsafe_get ents (b + f_way) in
    if w > 0 then begin
      let set = set_index t blk in
      let c = chunk_of t set and mb = meta_base t set in
      let e0 = Array.unsafe_get c (mb + m_way0) in
      Array.unsafe_set ents ((e0 * stride) + f_way) w;
      Array.unsafe_set ents (b + f_way) 0;
      Array.unsafe_set c (mb + m_way0) e
    end;
    Array.unsafe_set ents (b + f_last_use) t.tick;
    Array.unsafe_get ents (b + f_payload)
  end

(* Pure probe: the payload, or -1 on a miss; no tick, no rotation. *)
let peek t blk =
  let e = lookup t blk in
  if e < 0 then -1 else Array.unsafe_get t.ents ((e * stride) + f_payload)

(* The least recently used member of a full set, the lowest way on
   ties, as the per-way scan chose it. *)
let victim t c mb =
  let ents = t.ents in
  let best = ref c.(mb + m_head) in
  let e = ref ents.((!best * stride) + f_next) in
  while !e >= 0 do
    let b = !e * stride and bb = !best * stride in
    let lu = ents.(b + f_last_use) and blu = ents.(bb + f_last_use) in
    if lu < blu || (lu = blu && ents.(b + f_way) < ents.(bb + f_way)) then
      best := !e;
    e := ents.(b + f_next)
  done;
  !best

(* Sa.insert's exact semantics — refresh in place on hit; otherwise fill
   the first empty way, or evict the least-recently-used one — except
   that a hit also reports the payload it replaced, as [(blk, old)], so
   the owner of the slot can free it. *)
let insert t blk payload =
  let set = set_index t blk in
  let c = materialize t set in
  t.tick <- t.tick + 1;
  let e = lookup t blk in
  if e >= 0 then begin
    let b = e * stride in
    let old = t.ents.(b + f_payload) in
    t.ents.(b + f_payload) <- payload;
    t.ents.(b + f_last_use) <- t.tick;
    Some (blk, old)
  end
  else begin
    let mb = meta_base t set in
    let count = c.(mb + m_count) in
    if count < t.nways then begin
      append t c mb blk payload t.tick count;
      None
    end
    else begin
      let v = victim t c mb in
      let b = v * stride in
      let vblk = t.ents.(b + f_blk) and vpayload = t.ents.(b + f_payload) in
      remove_key t vblk;
      t.ents.(b + f_blk) <- blk;
      t.ents.(b + f_payload) <- payload;
      t.ents.(b + f_last_use) <- t.tick;
      place t blk v;
      Some (vblk, vpayload)
    end
  end

(* The entry array is copied trimmed to its live prefix: the model
   checker copies a cache per explored state. *)
let copy t =
  {
    t with
    chunks =
      Array.map
        (fun c -> if Array.length c = 0 then c else Array.copy c)
        t.chunks;
    index = Array.copy t.index;
    ents = Array.sub t.ents 0 (t.n * stride);
  }

(* Call [f set way e] for every resident entry [e] in ascending (set,
   way) order, the order a flat per-way array visits them in. *)
let iter_ways t f =
  let order = Array.make t.nways (-1) in
  Array.iteri
    (fun ci c ->
      for s = 0 to Array.length c / meta - 1 do
        let count = c.((s * meta) + m_count) in
        if count > 0 then begin
          let e = ref c.((s * meta) + m_head) in
          while !e >= 0 do
            order.(t.ents.((!e * stride) + f_way)) <- !e;
            e := t.ents.((!e * stride) + f_next)
          done;
          for w = 0 to count - 1 do
            f ((ci lsl t.chunk_lg) + s) w order.(w)
          done
        end
      done)
    t.chunks

let iter t f =
  iter_ways t (fun _ _ e ->
      f t.ents.((e * stride) + f_blk) t.ents.((e * stride) + f_payload))

(* Chunks materialized so far — the host-memory story the lazy layout
   exists for; bench and tests read it. *)
let chunks_allocated t =
  Array.fold_left
    (fun n c -> if Array.length c > 0 then n + 1 else n)
    0 t.chunks

(* Snapshot in Sa's format, so the same state saves the same bytes. *)
let save t w ~elt =
  Sa.save_ways w ~sets:t.nsets ~ways:t.nways ~tick:t.tick ~count:t.n
    (fun f ->
      iter_ways t (fun set way e ->
          let b = e * stride in
          f set way t.ents.(b + f_blk) t.ents.(b + f_last_use)
            t.ents.(b + f_payload)))
    ~elt

(* Rebuild from [save] output into a fresh cache, then install it, so a
   malformed table leaves [t] as it was. On top of Sa's checks, each
   set's filled ways must be a prefix, as the fill path keeps them. *)
let restore t r ~elt =
  let fresh = create ~sets:t.nsets ~ways:t.nways in
  let tick =
    Sa.load_ways "Csa" r ~sets:t.nsets ~ways:t.nways ~elt
      (fun set way blk lu payload ->
        let corrupt what = Warden_util.Bin.corrupt ("Csa: " ^ what) in
        let c = materialize fresh set and mb = meta_base fresh set in
        if c.(mb + m_count) <> way then corrupt "filled ways not a prefix";
        if lookup fresh blk >= 0 then corrupt "duplicate block";
        append fresh c mb blk payload lu way)
  in
  t.chunks <- fresh.chunks;
  t.index <- fresh.index;
  t.shift <- fresh.shift;
  t.ents <- fresh.ents;
  t.n <- fresh.n;
  t.tick <- tick
