type t = { mutable words : int array; mutable card : int }

let word_bits = 62

let create () = { words = Array.make 1 0; card = 0 }

let ensure t w =
  let n = Array.length t.words in
  if w >= n then begin
    let fresh = Array.make (max (w + 1) (2 * n)) 0 in
    Array.blit t.words 0 fresh 0 n;
    t.words <- fresh
  end

let mem t i =
  let w = i / word_bits in
  w < Array.length t.words && t.words.(w) land (1 lsl (i mod word_bits)) <> 0

let add t i =
  if i < 0 then invalid_arg "Bitset.add";
  if not (mem t i) then begin
    let w = i / word_bits in
    ensure t w;
    t.words.(w) <- t.words.(w) lor (1 lsl (i mod word_bits));
    t.card <- t.card + 1
  end

let remove t i =
  if mem t i then begin
    let w = i / word_bits in
    t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod word_bits));
    t.card <- t.card - 1
  end

let cardinal t = t.card
let is_empty t = t.card = 0

let iter t f =
  Array.iteri
    (fun w bits ->
      if bits <> 0 then
        for b = 0 to word_bits - 1 do
          if bits land (1 lsl b) <> 0 then f ((w * word_bits) + b)
        done)
    t.words

let elements t =
  let acc = ref [] in
  iter t (fun i -> acc := i :: !acc);
  List.rev !acc

let choose t =
  let found = ref None in
  (try
     iter t (fun i ->
         found := Some i;
         raise Exit)
   with Exit -> ());
  !found
