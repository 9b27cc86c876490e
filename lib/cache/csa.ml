(* Chunked set-associative cache: Sa's exact per-set semantics (same LRU
   clock, same MRU-first rotation, same victim tie-breaks) over lazily
   allocated chunks of sets. An engine's LLC at the 512-core scaling
   topologies is ~20M ways; materializing those arrays eagerly cost more
   host time than short runs, and the untouched sets also dragged every
   probe through hundreds of megabytes of cold host memory. A chunk is
   allocated on the first insert into any of its sets; a probe of an
   unallocated chunk is a miss, which is exactly what the eager arrays
   would have answered (every way empty) — simulated results are
   bit-identical by construction.

   Only the operations the LLC needs exist here; private caches stay on
   the flat [Sa] arrays, whose single-indirection probes are cheaper and
   whose footprint is small. Payloads are [int] slots, as in [Sa]. *)

type chunk = {
  blks : int array; (* -1 = empty *)
  payloads : int array;
  last_use : int array;
}

type t = {
  nsets : int;
  nways : int;
  chunk_sets : int; (* sets per chunk, a power of two *)
  chunks : chunk option array;
  mutable tick : int; (* monotonically increasing LRU clock, whole cache *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* 32 sets per chunk: at 20 ways that is ~15 KB of arrays — big enough to
   amortize the option indirection, small enough that a sparse working
   set touches a few chunks, not the whole slice. *)
let default_chunk_sets = 32

let create ~sets ~ways =
  if not (is_pow2 sets) then invalid_arg "Csa.create: sets must be a power of two";
  if ways <= 0 then invalid_arg "Csa.create: ways";
  let chunk_sets = min sets default_chunk_sets in
  {
    nsets = sets;
    nways = ways;
    chunk_sets;
    chunks = Array.make (sets / chunk_sets) None;
    tick = 0;
  }

let set_index t blk = blk land (t.nsets - 1)

let chunk_of t set = Array.unsafe_get t.chunks (set / t.chunk_sets)

let materialize t set =
  let ci = set / t.chunk_sets in
  match Array.unsafe_get t.chunks ci with
  | Some c -> c
  | None ->
      let cap = t.chunk_sets * t.nways in
      let c =
        {
          blks = Array.make cap (-1);
          payloads = Array.make cap (-1);
          last_use = Array.make cap 0;
        }
      in
      t.chunks.(ci) <- Some c;
      c

(* Base index of [set]'s ways inside its chunk. *)
let base_of t set = set land (t.chunk_sets - 1) * t.nways

(* Pure probe: way offset within the set's chunk, -1 on miss (including
   the unallocated-chunk case — every way of a fresh chunk is empty). *)
let peek_pos c base nways blk =
  let blks = c.blks in
  let last = base + nways in
  let i = ref base in
  while !i < last && Array.unsafe_get blks !i <> blk do
    incr i
  done;
  if !i < last then !i else -1

let swap a i j =
  let x = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j x

let swap_ways c a b =
  if a <> b then begin
    swap c.blks a b;
    swap c.payloads a b;
    swap c.last_use a b
  end

(* Hit probe with Sa.find_way's exact bookkeeping: tick, MRU rotation
   into way 0, recency refresh. Returns the payload, or -1 on a miss. *)
let find t blk =
  let set = set_index t blk in
  match chunk_of t set with
  | None -> -1
  | Some c ->
      let base = base_of t set in
      let w = peek_pos c base t.nways blk in
      if w < 0 then -1
      else begin
        t.tick <- t.tick + 1;
        if w > base then swap_ways c base w;
        Array.unsafe_set c.last_use base t.tick;
        Array.unsafe_get c.payloads base
      end

(* Pure probe: the payload, or -1 on a miss; no tick, no rotation. *)
let peek t blk =
  let set = set_index t blk in
  match chunk_of t set with
  | None -> -1
  | Some c ->
      let w = peek_pos c (base_of t set) t.nways blk in
      if w < 0 then -1 else Array.unsafe_get c.payloads w

(* Sa.insert's exact semantics — refresh in place on hit; otherwise fill
   the first empty way, or evict the least-recently-used one (first index
   wins ties) — except that a hit also reports the payload it replaced,
   as [(blk, old)], so the owner of the slot can free it. *)
let insert t blk payload =
  let set = set_index t blk in
  let c = materialize t set in
  t.tick <- t.tick + 1;
  let base = base_of t set in
  let w = peek_pos c base t.nways blk in
  if w >= 0 then begin
    let old = c.payloads.(w) in
    c.payloads.(w) <- payload;
    c.last_use.(w) <- t.tick;
    Some (blk, old)
  end
  else begin
    let best = ref base in
    (try
       for i = base to base + t.nways - 1 do
         if c.blks.(i) = -1 then begin
           best := i;
           raise Exit
         end
         else if c.last_use.(i) < c.last_use.(!best) then best := i
       done
     with Exit -> ());
    let w = !best in
    let evicted =
      if c.blks.(w) = -1 then None else Some (c.blks.(w), c.payloads.(w))
    in
    c.blks.(w) <- blk;
    c.payloads.(w) <- payload;
    c.last_use.(w) <- t.tick;
    evicted
  end

let copy t =
  {
    t with
    chunks =
      Array.map
        (Option.map (fun c ->
             {
               blks = Array.copy c.blks;
               payloads = Array.copy c.payloads;
               last_use = Array.copy c.last_use;
             }))
        t.chunks;
  }

(* Ascending (set, way) over resident blocks — the order Sa.iter visits
   a flat slice in; unallocated chunks hold nothing. *)
let iter t f =
  Array.iter
    (function
      | None -> ()
      | Some c ->
          for i = 0 to Array.length c.blks - 1 do
            let blk = Array.unsafe_get c.blks i in
            if blk <> -1 then f blk c.payloads.(i)
          done)
    t.chunks

(* Chunks actually materialized — the host-memory story the lazy layout
   exists for; bench and tests read it. *)
let chunks_allocated t =
  Array.fold_left (fun n c -> match c with Some _ -> n + 1 | None -> n) 0 t.chunks

let chunks_total t = Array.length t.chunks

(* Snapshot: geometry, the LRU clock, then only the materialized chunks
   (index, tags, recency, resident payloads). Restore re-materializes
   exactly those chunks, so the unallocated-chunk-is-miss behaviour — and
   the host-memory footprint — of the original survives the round trip. *)
let save t w ~elt =
  let module B = Warden_util.Bin in
  B.w_int w t.nsets;
  B.w_int w t.nways;
  B.w_int w t.tick;
  B.w_int w (chunks_allocated t);
  Array.iteri
    (fun ci c ->
      match c with
      | None -> ()
      | Some c ->
          B.w_int w ci;
          B.w_int_array w c.blks;
          B.w_int_array w c.last_use;
          for i = 0 to Array.length c.blks - 1 do
            if Array.unsafe_get c.blks i <> -1 then elt w c.payloads.(i)
          done)
    t.chunks

let restore t r ~elt =
  let module B = Warden_util.Bin in
  let sets = B.r_int r and ways = B.r_int r in
  if sets <> t.nsets || ways <> t.nways then B.corrupt "Csa: geometry mismatch";
  t.tick <- B.r_int r;
  Array.fill t.chunks 0 (Array.length t.chunks) None;
  let n = B.r_int r in
  if n < 0 || n > Array.length t.chunks then B.corrupt "Csa: bad chunk count";
  let cap = t.chunk_sets * t.nways in
  for _ = 1 to n do
    let ci = B.r_int r in
    if ci < 0 || ci >= Array.length t.chunks then B.corrupt "Csa: bad chunk index";
    let blks = B.r_int_array r in
    let last_use = B.r_int_array r in
    if Array.length blks <> cap || Array.length last_use <> cap then
      B.corrupt "Csa: bad chunk arrays";
    let payloads = Array.make cap (-1) in
    for i = 0 to cap - 1 do
      if Array.unsafe_get blks i <> -1 then payloads.(i) <- elt r
    done;
    t.chunks.(ci) <- Some { blks; payloads; last_use }
  done
