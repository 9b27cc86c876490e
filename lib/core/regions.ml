open Warden_mem

(* The live intervals in flat arrays sorted by lower bound, intervals with
   equal [lo] newest first, plus a prefix maximum of the upper bounds:
   [pmax.(i)] is the largest [hi] among entries [0..i]. An address is
   covered iff some entry with [lo <= addr] has [hi > addr], i.e. iff the
   prefix maximum at the last such entry exceeds it — one binary search,
   no allocation. [add] and [remove] shift the arrays and redo the prefix
   maximum from the changed entry on; the table holds at most [capacity]
   (1024 on the paper's machines) entries. [max_len], the longest interval
   ever added, is no longer needed by lookups and is kept only because
   the snapshot format carries it. *)
type t = {
  mutable los : int array;
  mutable his : int array;
  mutable pmax : int array;
  mutable n : int;
  mutable max_len : int;
  capacity : int;
}

let create ~capacity =
  { los = [||]; his = [||]; pmax = [||]; n = 0; max_len = 0; capacity }

let capacity t = t.capacity
let count t = t.n

let copy t =
  {
    los = Array.sub t.los 0 t.n;
    his = Array.sub t.his 0 t.n;
    pmax = Array.sub t.pmax 0 t.n;
    n = t.n;
    max_len = t.max_len;
    capacity = t.capacity;
  }

(* The number of entries among the first [n] whose [lo] is at most [x]. *)
let count_le los n x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get los mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* The first entry whose [lo] is at least [x]. *)
let first_ge t x =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.los.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let refresh_pmax t from =
  for i = from to t.n - 1 do
    let h = t.his.(i) in
    t.pmax.(i) <- (if i = 0 then h else max h t.pmax.(i - 1))
  done

let grow t =
  let cap = max 8 (2 * t.n) in
  let extend a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.los <- extend t.los;
  t.his <- extend t.his;
  t.pmax <- extend t.pmax

let add t ~lo ~hi =
  if hi <= lo || t.n >= t.capacity then false
  else begin
    if t.n = Array.length t.los then grow t;
    let i = first_ge t lo in
    let tail = t.n - i in
    Array.blit t.los i t.los (i + 1) tail;
    Array.blit t.his i t.his (i + 1) tail;
    t.los.(i) <- lo;
    t.his.(i) <- hi;
    t.n <- t.n + 1;
    refresh_pmax t i;
    t.max_len <- max t.max_len (hi - lo);
    true
  end

(* Removes the newest occurrence of [lo, hi). *)
let remove t ~lo ~hi =
  let rec find i =
    if i >= t.n || t.los.(i) <> lo then -1
    else if t.his.(i) = hi then i
    else find (i + 1)
  in
  let i = find (first_ge t lo) in
  if i < 0 then false
  else begin
    let tail = t.n - i - 1 in
    Array.blit t.los (i + 1) t.los i tail;
    Array.blit t.his (i + 1) t.his i tail;
    t.n <- t.n - 1;
    refresh_pmax t i;
    true
  end

let covered t n x = n > 0 && Array.unsafe_get t.pmax (n - 1) > x
let mem t addr = covered t (count_le t.los t.n addr) addr

(* Some interval overlaps the block iff one starting at or before its
   last byte ends after its first. *)
let block_in t blk =
  let base = Addr.base_of_block blk in
  covered t (count_le t.los t.n (base + Addr.block_size - 1)) base

let iter t f =
  for i = 0 to t.n - 1 do
    f ~lo:t.los.(i) ~hi:t.his.(i)
  done

let clear t =
  t.n <- 0;
  t.max_len <- 0

(* Snapshot layout: the count, [max_len], then per distinct lower bound
   in ascending order its upper bounds newest first — the encoding of
   the map of per-[lo] lists this table once was. *)
let save t w =
  let module B = Warden_util.Bin in
  B.w_int w t.n;
  B.w_int w t.max_len;
  let keys = ref 0 in
  for i = 0 to t.n - 1 do
    if i = 0 || t.los.(i) <> t.los.(i - 1) then incr keys
  done;
  B.w_int w !keys;
  let i = ref 0 in
  while !i < t.n do
    let lo = t.los.(!i) in
    let j = ref !i in
    while !j < t.n && t.los.(!j) = lo do
      incr j
    done;
    B.w_int w lo;
    B.w_int w (!j - !i);
    for k = !i to !j - 1 do
      B.w_int w t.his.(k)
    done;
    i := !j
  done

(* Builds the table aside, so a malformed snapshot leaves [t] as it was. *)
let restore t r =
  let module B = Warden_util.Bin in
  let n = B.r_int r in
  let max_len = B.r_int r in
  let nkeys = B.r_int r in
  if n < 0 || max_len < 0 || nkeys < 0 then B.corrupt "Regions: bad snapshot";
  let u = create ~capacity:t.capacity in
  let prev = ref min_int in
  for k = 1 to nkeys do
    let lo = B.r_int r in
    if k > 1 && lo <= !prev then
      B.corrupt "Regions: lower bounds not strictly ascending";
    prev := lo;
    let len = B.r_int r in
    if len <= 0 then B.corrupt "Regions: empty upper-bound list";
    for _ = 1 to len do
      let hi = B.r_int r in
      if hi <= lo then B.corrupt "Regions: empty interval";
      if u.n = Array.length u.los then grow u;
      u.los.(u.n) <- lo;
      u.his.(u.n) <- hi;
      u.n <- u.n + 1
    done
  done;
  if u.n <> n then B.corrupt "Regions: count mismatch";
  refresh_pmax u 0;
  t.los <- u.los;
  t.his <- u.his;
  t.pmax <- u.pmax;
  t.n <- n;
  t.max_len <- max_len
