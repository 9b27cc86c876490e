(* Flat open-addressing directory. One probe per request instead of a
   Hashtbl bucket walk, and an entry is immediate ints in parallel
   arrays — no per-entry record, no boxed sharer set on any path.

   meta word layout (per slot):
     bits 0-2   directory state (I=0 S=1 E=2 M=3 W=4)
     bit  3     w_multi
     bits 4+    owner + 1 (0 = no owner)
   A fresh entry is the integer 0: D_I, no owner, not multi.

   Sharer sets come in two layouts, chosen once at [create] from the
   machine geometry (DESIGN.md §14):

   - flat (<= 62 cores): [mask.(slot)] is a plain core bitmask, bit c =
     core c. Every Table-2 topology fits in one word.

   - hierarchical (> 62 cores): [mask.(slot)] becomes a coarse
     socket-presence bitmask (bit s = socket s holds at least one copy,
     up to 62 sockets per word) and the per-socket fine words live in a
     parallel flat [fine] array at [slot * sockets + socket], bit b =
     core [socket * cores_per_socket + b] (cores_per_socket <= 62, so no
     second level of spill exists at any supported topology). The
     invalidation/downgrade walk reads the coarse mask and skips empty
     sockets in one branch — no hash table, no boxed set, no allocation.

   The directory is ideal (never evicts), so there is no deletion and no
   tombstones: linear probing terminates at the first empty slot. *)

type t = {
  mutable keys : int array; (* block id per slot; -1 = empty *)
  mutable meta : int array;
  mutable mask : int array; (* flat: sharer bits; hier: coarse socket bits *)
  mutable fine : int array; (* hier: per-socket words at slot*nsock+s; flat: [||] *)
  mutable used : int;
  mutable shift : int; (* 63 - log2 capacity *)
  nsock : int; (* 0 in flat mode, else the socket count *)
  cps : int; (* cores per socket (hier mode) *)
  cps_shift : int; (* log2 cps when cps is a power of two, else -1 *)
}

type slot = int

let no_slot = -1
let flat_max = 62

(* Start tiny and double on demand (load factor 1/2). Capacity is purely
   a host-side concern — the directory is ideal, so growth never changes
   what any request observes — but it is what the model checker's
   copy-based BFS pays per explored node, and in hierarchical mode the
   fine array scales it by the socket count. *)
let initial_lg = 6

(* Odd 63-bit multiplier (SplitMix finalizer constant); the top bits of
   blk * factor index the table. *)
let factor = 0x2545F4914F6CDD1D

let create ~sockets ~cores_per_socket () : t =
  if sockets <= 0 || cores_per_socket <= 0 then
    invalid_arg "Dirstate.create: nonpositive geometry";
  let cores = sockets * cores_per_socket in
  let hier = cores > flat_max in
  if hier && sockets > flat_max then
    invalid_arg "Dirstate.create: more than 62 sockets";
  if hier && cores_per_socket > flat_max then
    invalid_arg "Dirstate.create: more than 62 cores per socket";
  let nsock = if hier then sockets else 0 in
  let cap = 1 lsl initial_lg in
  {
    keys = Array.make cap (-1);
    meta = Array.make cap 0;
    mask = Array.make cap 0;
    fine = (if hier then Array.make (cap * nsock) 0 else [||]);
    used = 0;
    shift = 63 - initial_lg;
    nsock;
    cps = cores_per_socket;
    cps_shift =
      (if cores_per_socket land (cores_per_socket - 1) = 0 then
         let rec lg n acc = if n <= 1 then acc else lg (n lsr 1) (acc + 1) in
         lg cores_per_socket 0
       else -1);
  }

let hierarchical t = t.nsock > 0

(* Socket / in-socket bit of a core; division only when cps is not a
   power of two (it is at every many-socket scaling topology). *)
let socket_of t core =
  if t.cps_shift >= 0 then core lsr t.cps_shift else core / t.cps

let lane_of t core =
  if t.cps_shift >= 0 then core land (t.cps - 1) else core mod t.cps

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
  let old_keys = t.keys
  and old_meta = t.meta
  and old_mask = t.mask
  and old_fine = t.fine in
  let cap = Array.length old_keys * 2 in
  let nsock = t.nsock in
  t.keys <- Array.make cap (-1);
  t.meta <- Array.make cap 0;
  t.mask <- Array.make cap 0;
  if nsock > 0 then t.fine <- Array.make (cap * nsock) 0;
  t.shift <- t.shift - 1;
  for i = 0 to Array.length old_keys - 1 do
    let blk = old_keys.(i) in
    if blk >= 0 then begin
      let j = probe t blk in
      t.keys.(j) <- blk;
      t.meta.(j) <- old_meta.(i);
      t.mask.(j) <- old_mask.(i);
      if nsock > 0 then Array.blit old_fine (i * nsock) t.fine (j * nsock) nsock
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
    (* meta, mask and fine are already 0 = invalid: never mutated since
       create or grow, because set_invalid resets them. *)
    t.used <- t.used + 1;
    i
  end

let find t blk : slot =
  let i = probe t blk in
  if Array.unsafe_get t.keys i = blk then i else no_slot

let block t (s : slot) = t.keys.(s)

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
  if t.nsock = 0 then t.mask.(s) <- t.mask.(s) lor (1 lsl core)
  else begin
    let sk = socket_of t core in
    let j = (s * t.nsock) + sk in
    t.fine.(j) <- t.fine.(j) lor (1 lsl lane_of t core);
    t.mask.(s) <- t.mask.(s) lor (1 lsl sk)
  end

let sharer_remove t (s : slot) core =
  if t.nsock = 0 then t.mask.(s) <- t.mask.(s) land lnot (1 lsl core)
  else begin
    let sk = socket_of t core in
    let j = (s * t.nsock) + sk in
    let w = t.fine.(j) land lnot (1 lsl lane_of t core) in
    t.fine.(j) <- w;
    if w = 0 then t.mask.(s) <- t.mask.(s) land lnot (1 lsl sk)
  end

let sharer_mem t (s : slot) core =
  if t.nsock = 0 then t.mask.(s) land (1 lsl core) <> 0
  else
    t.fine.((s * t.nsock) + socket_of t core) land (1 lsl lane_of t core) <> 0

let sharers_clear t (s : slot) =
  (if t.nsock > 0 then
     let base = s * t.nsock in
     iter_bits t.mask.(s) 0 (fun sk -> t.fine.(base + sk) <- 0));
  t.mask.(s) <- 0

(* Invariant: in hierarchical mode a coarse bit is set iff its fine word
   is nonzero, so emptiness is one load in either layout. *)
let sharers_empty t (s : slot) = t.mask.(s) = 0

let sharer_count t (s : slot) =
  if t.nsock = 0 then popcount t.mask.(s)
  else begin
    let base = s * t.nsock in
    let n = ref 0 in
    iter_bits t.mask.(s) 0 (fun sk -> n := !n + popcount t.fine.(base + sk));
    !n
  end

(* Ascending core id: sockets ascending by the coarse mask, then each
   socket's fine word ascending (flat mode is the one-word case). *)
let sharer_iter t (s : slot) f =
  if t.nsock = 0 then iter_bits t.mask.(s) 0 f
  else begin
    let base = s * t.nsock and cps = t.cps in
    iter_bits t.mask.(s) 0 (fun sk ->
        iter_bits t.fine.(base + sk) (sk * cps) f)
  end

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
  for i = 0 to Array.length keys - 1 do
    let blk = Array.unsafe_get keys i in
    if blk >= 0 then f blk i
  done

let copy (t : t) : t =
  {
    keys = Array.copy t.keys;
    meta = Array.copy t.meta;
    mask = Array.copy t.mask;
    fine = (if t.nsock > 0 then Array.copy t.fine else [||]);
    used = t.used;
    shift = t.shift;
    nsock = t.nsock;
    cps = t.cps;
    cps_shift = t.cps_shift;
  }

(* Snapshot every slot array wholesale — both the flat and the
   hierarchical sharer layouts are plain int arrays, so this is [copy]
   through a byte buffer. The geometry fields (nsock/cps) are fixed by
   [create] and only validated on restore. *)
let save (t : t) w =
  let module B = Warden_util.Bin in
  B.w_int w t.nsock;
  B.w_int w t.cps;
  B.w_int w t.used;
  B.w_int w t.shift;
  B.w_int_array w t.keys;
  B.w_int_array w t.meta;
  B.w_int_array w t.mask;
  B.w_int_array w t.fine

let restore (t : t) r =
  let module B = Warden_util.Bin in
  let nsock = B.r_int r and cps = B.r_int r in
  if nsock <> t.nsock || cps <> t.cps then
    B.corrupt "Dirstate: geometry mismatch";
  t.used <- B.r_int r;
  t.shift <- B.r_int r;
  t.keys <- B.r_int_array r;
  t.meta <- B.r_int_array r;
  t.mask <- B.r_int_array r;
  t.fine <- B.r_int_array r;
  let cap = Array.length t.keys in
  if
    cap = 0
    || cap land (cap - 1) <> 0
    || Array.length t.meta <> cap
    || Array.length t.mask <> cap
    || Array.length t.fine <> (if t.nsock > 0 then cap * t.nsock else 0)
  then B.corrupt "Dirstate: inconsistent arrays"
