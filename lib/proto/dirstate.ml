(* Flat open-addressing directory. One probe per request instead of a
   Hashtbl bucket walk, and an entry is immediate ints in parallel
   arrays — no per-entry record, no boxed sharer set on any path.

   meta word layout (per slot):
     bits 0-2   directory state (I=0 S=1 E=2 M=3 W=4)
     bit  3     w_multi
     bits 4+    owner + 1 (0 = no owner)
   A fresh entry is the integer 0: D_I, no owner, not multi.

   Sharer sets (DESIGN.md §14): each slot owns [words] consecutive words
   of [mask], at [slot * words + word]. Up to 62 cores that is one word,
   bit c = core c — every Table-2 topology. Above, it is one word per
   socket, bit b of word s = core [s * cores_per_socket + b]
   (cores_per_socket <= 62, so a socket always fits in a word). A core
   maps to its (word, lane) with one shift, or one divide when the span
   of a word is not a power of two.

   The directory is ideal (never evicts), so there is no deletion and no
   tombstones: linear probing terminates at the first empty slot. *)

type t = {
  mutable keys : int array; (* block id per slot; -1 = empty *)
  mutable meta : int array;
  mutable mask : int array; (* [words] sharer words per slot *)
  mutable used : int;
  mutable shift : int; (* 63 - log2 capacity *)
  mutable top : int; (* highest block ever entered; -1 = none. Derived
                        from [keys]: never saved, recomputed on restore *)
  words : int; (* 1 up to 62 cores, else the socket count *)
  cps : int; (* cores per socket *)
  span : int; (* cores per word: 64 with one word, else cps *)
  span_shift : int; (* log2 span when a power of two, else -1 *)
}

type slot = int

let no_slot = -1
let lanes = 62 (* cores per sharer word, and the cap on sockets *)

(* Start tiny and double on demand (load factor 1/2). Capacity is purely
   a host-side concern — the directory is ideal, so growth never changes
   what any request observes — but it is what the model checker's
   copy-based BFS pays per explored node, and the sharer words scale it
   by the socket count above 62 cores. *)
let initial_lg = 6

(* Odd 63-bit multiplier (SplitMix finalizer constant); the top bits of
   blk * factor index the table. *)
let factor = 0x2545F4914F6CDD1D

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(capacity = 1 lsl initial_lg) ~sockets ~cores_per_socket () : t =
  if sockets <= 0 || cores_per_socket <= 0 then
    invalid_arg "Dirstate.create: nonpositive geometry";
  let words = if sockets * cores_per_socket > lanes then sockets else 1 in
  if words > 1 && sockets > lanes then
    invalid_arg "Dirstate.create: more than 62 sockets";
  if words > 1 && cores_per_socket > lanes then
    invalid_arg "Dirstate.create: more than 62 cores per socket";
  (* With one word every core sits below lane 64, so a shift by 6 maps
     it to word 0 and its lane is the core id. *)
  let span = if words = 1 then 64 else cores_per_socket in
  let rec lg b =
    if b >= initial_lg || 1 lsl b >= capacity then b else lg (b + 1)
  in
  let lg = lg 1 in
  let cap = 1 lsl lg in
  {
    keys = Array.make cap (-1);
    meta = Array.make cap 0;
    mask = Array.make (cap * words) 0;
    used = 0;
    shift = 63 - lg;
    top = -1;
    words;
    cps = cores_per_socket;
    span;
    span_shift = (if span land (span - 1) = 0 then log2 span else -1);
  }

let of_config (cfg : Warden_machine.Config.t) =
  create
    ~capacity:(Warden_machine.Config.l3_sets_per_socket cfg * cfg.l3_ways)
    ~sockets:cfg.sockets ~cores_per_socket:cfg.cores_per_socket ()

let word_of t core =
  if t.span_shift >= 0 then core lsr t.span_shift else core / t.span

let lane_of t core =
  if t.span_shift >= 0 then core land (t.span - 1) else core mod t.span

(* First slot holding [blk] or empty, scanning the probe sequence. *)
let probe t blk =
  let keys = t.keys in
  let m = Array.length keys - 1 in
  let i = ref ((blk * factor) lsr t.shift) in
  while
    let k = Array.unsafe_get keys !i in
    k <> blk && k <> -1
  do
    i := (!i + 1) land m
  done;
  !i

let grow t =
  let old_keys = t.keys and old_meta = t.meta and old_mask = t.mask in
  let cap = Array.length old_keys * 2 in
  let words = t.words in
  t.keys <- Array.make cap (-1);
  t.meta <- Array.make cap 0;
  t.mask <- Array.make (cap * words) 0;
  t.shift <- t.shift - 1;
  for i = 0 to Array.length old_keys - 1 do
    let blk = old_keys.(i) in
    if blk >= 0 then begin
      let j = probe t blk in
      t.keys.(j) <- blk;
      t.meta.(j) <- old_meta.(i);
      Array.blit old_mask (i * words) t.mask (j * words) words
    end
  done

let rec entry t blk : slot =
  let i = probe t blk in
  if Array.unsafe_get t.keys i = blk then i
  else if 2 * (t.used + 1) > Array.length t.keys then begin
    grow t;
    entry t blk
  end
  else begin
    t.keys.(i) <- blk;
    (* meta and the sharer words are already 0 = invalid: never mutated
       since create or grow, because set_invalid resets them. *)
    t.used <- t.used + 1;
    if blk > t.top then t.top <- blk;
    i
  end

let find t blk : slot =
  let i = probe t blk in
  if Array.unsafe_get t.keys i = blk then i else no_slot

let block t (s : slot) = t.keys.(s)
let top t = t.top

(* --- packed fields --------------------------------------------------------- *)

let state t (s : slot) : States.dstate =
  match t.meta.(s) land 7 with
  | 0 -> States.D_I
  | 1 -> States.D_S
  | 2 -> States.D_E
  | 3 -> States.D_M
  | _ -> States.D_W

let state_code = function
  | States.D_I -> 0
  | States.D_S -> 1
  | States.D_E -> 2
  | States.D_M -> 3
  | States.D_W -> 4

let set_state t (s : slot) st =
  t.meta.(s) <- t.meta.(s) land lnot 7 lor state_code st

let owner t (s : slot) = (t.meta.(s) lsr 4) - 1
let set_owner t (s : slot) o = t.meta.(s) <- t.meta.(s) land 15 lor ((o + 1) lsl 4)
let w_multi t (s : slot) = t.meta.(s) land 8 <> 0

let set_w_multi t (s : slot) b =
  t.meta.(s) <- (if b then t.meta.(s) lor 8 else t.meta.(s) land lnot 8)

(* --- sharer set ------------------------------------------------------------ *)

let popcount m =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr c
  done;
  !c

(* Call [f] on the index (offset by [base]) of every set bit of [word],
   ascending. Empty byte spans are skipped in one branch, so walking a
   sparse word costs its byte count, not its bit count. *)
let iter_bits word base f =
  let m = ref word and c = ref base in
  while !m <> 0 do
    if !m land 0xFF = 0 then begin
      m := !m lsr 8;
      c := !c + 8
    end
    else begin
      if !m land 1 = 1 then f !c;
      m := !m lsr 1;
      incr c
    end
  done

let sharer_add t (s : slot) core =
  let j = (s * t.words) + word_of t core in
  t.mask.(j) <- t.mask.(j) lor (1 lsl lane_of t core)

let sharer_remove t (s : slot) core =
  let j = (s * t.words) + word_of t core in
  t.mask.(j) <- t.mask.(j) land lnot (1 lsl lane_of t core)

let sharer_mem t (s : slot) core =
  t.mask.((s * t.words) + word_of t core) land (1 lsl lane_of t core) <> 0

let sharers_clear t (s : slot) =
  let base = s * t.words in
  for j = base to base + t.words - 1 do
    t.mask.(j) <- 0
  done

let sharers_empty t (s : slot) =
  let j = ref (s * t.words) and stop = (s + 1) * t.words in
  while !j < stop && t.mask.(!j) = 0 do
    incr j
  done;
  !j = stop

let sharer_count t (s : slot) =
  let base = s * t.words in
  let n = ref 0 in
  for j = base to base + t.words - 1 do
    let m = t.mask.(j) in
    if m <> 0 then n := !n + popcount m
  done;
  !n

(* Ascending core id: words ascending, each word's bits ascending. An
   empty word costs one load. *)
let sharer_iter t (s : slot) f =
  let base = s * t.words in
  for w = 0 to t.words - 1 do
    let m = t.mask.(base + w) in
    if m <> 0 then iter_bits m (w * t.span) f
  done

let sharers t (s : slot) =
  let acc = ref [] in
  sharer_iter t s (fun c -> acc := c :: !acc);
  List.rev !acc

(* --- whole-entry operations ------------------------------------------------ *)

let set_invalid t (s : slot) =
  t.meta.(s) <- 0;
  sharers_clear t s

let holders t (s : slot) =
  match state t s with
  | States.D_I -> []
  | States.D_E | States.D_M ->
      let o = owner t s in
      if o >= 0 then [ o ] else []
  | States.D_S | States.D_W -> sharers t s

let iter t f =
  let keys = t.keys in
  for i = Array.length keys - 1 downto 0 do
    let blk = Array.unsafe_get keys i in
    if blk >= 0 then f blk i
  done

let copy (t : t) : t =
  {
    t with
    keys = Array.copy t.keys;
    meta = Array.copy t.meta;
    mask = Array.copy t.mask;
  }

(* Snapshot: the sharer words per entry, cores per socket, the capacity
   and the entry count, then each entry as (slot, block, meta, sharer
   words) in ascending slot order. Writing the slot keeps [iter]'s order,
   which [flush_all] and [dump] depend on. *)
let save (t : t) w =
  let module B = Warden_util.Bin in
  B.w_int w t.words;
  B.w_int w t.cps;
  B.w_int w (Array.length t.keys);
  B.w_int w t.used;
  Array.iteri
    (fun i blk ->
      if blk >= 0 then begin
        B.w_int w i;
        B.w_int w blk;
        B.w_int w t.meta.(i);
        for j = i * t.words to ((i + 1) * t.words) - 1 do
          B.w_int w t.mask.(j)
        done
      end)
    t.keys

(* A restored table must satisfy what [probe] relies on for its
   unchecked reads and its termination, so every entry is validated
   before any is installed: at least half the slots stay empty, and
   every block is found by [probe] at its own slot. *)
let restore (t : t) r =
  let module B = Warden_util.Bin in
  let words = B.r_int r and cps = B.r_int r in
  if cps <> t.cps then B.corrupt "Dirstate: geometry mismatch";
  if words <> t.words then B.corrupt "Dirstate: wrong number of sharer words";
  let cap = B.r_int r in
  let used = B.r_int r in
  if used < 0 || 2 * used > cap || used > B.r_left r / (8 * (3 + words)) then
    B.corrupt "Dirstate: bad used count";
  (* The table starts at 2^initial_lg slots at most and doubles past
     half load, so a grown table is at least a quarter full. *)
  let too_large = cap > max (1 lsl initial_lg) (4 * used) in
  if cap < 2 || cap land (cap - 1) <> 0 || too_large then
    B.corrupt "Dirstate: bad capacity";
  let fresh =
    { t with keys = Array.make cap (-1); meta = Array.make cap 0;
      mask = Array.make (cap * words) 0; shift = 63 - log2 cap }
  in
  let prev = ref (-1) in
  for _ = 1 to used do
    let i = B.r_int r and blk = B.r_int r in
    if i <= !prev || i >= cap then B.corrupt "Dirstate: misplaced slot";
    prev := i;
    if blk < 0 then B.corrupt "Dirstate: negative block";
    let meta = B.r_int r in
    if meta < 0 || meta land 7 > 4 then B.corrupt "Dirstate: bad meta";
    fresh.keys.(i) <- blk;
    fresh.meta.(i) <- meta;
    for j = i * words to ((i + 1) * words) - 1 do
      fresh.mask.(j) <- B.r_int r
    done
  done;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = probe fresh k in
        if j <> i then
          B.corrupt
            (if fresh.keys.(j) = k then "Dirstate: duplicate block"
             else "Dirstate: misplaced slot")
      end)
    fresh.keys;
  t.used <- used;
  t.shift <- fresh.shift;
  t.top <- Array.fold_left max (-1) fresh.keys;
  t.keys <- fresh.keys;
  t.meta <- fresh.meta;
  t.mask <- fresh.mask
