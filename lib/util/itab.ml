(* Open-addressing table keyed by non-negative ints, with no deletion:
   linear probing terminates at the first empty slot. Built for hot
   find-or-add lookups (one probe, no closure, no option) where Hashtbl
   would hash twice and walk bucket lists. *)

type 'a t = {
  mutable keys : int array; (* -1 = empty *)
  mutable vals : 'a array;
  mutable used : int;
  mutable shift : int; (* 63 - log2 capacity *)
  dummy : 'a;
}

let initial_lg = 2

(* Odd 63-bit multiplier (SplitMix finalizer constant). *)
let factor = 0x2545F4914F6CDD1D

let create ~dummy () =
  {
    keys = Array.make (1 lsl initial_lg) (-1);
    vals = Array.make (1 lsl initial_lg) dummy;
    used = 0;
    shift = 63 - initial_lg;
    dummy;
  }

let probe t id =
  let keys = t.keys in
  let m = Array.length keys - 1 in
  let i = ref ((id * factor) lsr t.shift) in
  while
    let k = Array.unsafe_get keys !i in
    k <> id && k <> -1
  do
    i := (!i + 1) land m
  done;
  !i

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = Array.length old_keys * 2 in
  t.keys <- Array.make cap (-1);
  t.vals <- Array.make cap t.dummy;
  t.shift <- t.shift - 1;
  for i = 0 to Array.length old_keys - 1 do
    let id = old_keys.(i) in
    if id >= 0 then begin
      let j = probe t id in
      t.keys.(j) <- id;
      t.vals.(j) <- old_vals.(i)
    end
  done

let rec find_or_add t id ~make =
  let i = probe t id in
  if Array.unsafe_get t.keys i = id then Array.unsafe_get t.vals i
  else if 2 * (t.used + 1) > Array.length t.keys then begin
    grow t;
    find_or_add t id ~make
  end
  else begin
    let v = make id in
    t.keys.(i) <- id;
    t.vals.(i) <- v;
    t.used <- t.used + 1;
    v
  end

(* Pure probe: no insertion, no growth, no mutation. *)
let find_or t id ~default =
  let i = probe t id in
  if Array.unsafe_get t.keys i = id then Array.unsafe_get t.vals i
  else default

let mem t id = t.keys.(probe t id) = id

let length t = t.used

let iter t f =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    let id = Array.unsafe_get keys i in
    if id >= 0 then f id t.vals.(i)
  done

(* Snapshot as (key, value) pairs sorted by key: the host-side slot
   layout (capacity, probe displacements) is reconstructed by reinserting,
   so the byte stream is canonical — two tables holding the same bindings
   snapshot identically regardless of their insertion histories. *)
let save t w ~elt =
  let pairs = ref [] in
  iter t (fun id v -> pairs := (id, v) :: !pairs);
  let pairs =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) !pairs
  in
  Bin.w_int w (List.length pairs);
  List.iter
    (fun (id, v) ->
      Bin.w_int w id;
      elt w v)
    pairs

let load r ~dummy ~elt =
  let n = Bin.r_int r in
  if n < 0 then Bin.corrupt "Itab: negative binding count";
  let t = create ~dummy () in
  for _ = 1 to n do
    let id = Bin.r_int r in
    if id < 0 then Bin.corrupt "Itab: negative key";
    let v = elt r in
    ignore (find_or_add t id ~make:(fun _ -> v))
  done;
  t
