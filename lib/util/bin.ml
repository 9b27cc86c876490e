(* Flat little-endian binary writer/reader for simulator snapshots and
   recorded access streams (DESIGN.md §15). Everything the simulator
   snapshots is already immediate ints, int64 words, floats or Bytes, so
   the format is fixed-width words plus length-prefixed blobs — bulk
   blits, no tags, no varints. Robustness against truncated or corrupt
   input lives one layer up (Snap's header carries a version and a
   checksum of the payload); the reader here only bounds-checks. *)

type w = { mutable buf : Bytes.t; mutable len : int }

let writer ?(capacity = 4096) () = { buf = Bytes.create (max 16 capacity); len = 0 }

let ensure w extra =
  let need = w.len + extra in
  if need > Bytes.length w.buf then begin
    let cap = ref (2 * Bytes.length w.buf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let nb = Bytes.create !cap in
    Bytes.blit w.buf 0 nb 0 w.len;
    w.buf <- nb
  end

let w_u8 w v =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xFF));
  w.len <- w.len + 1

let w_i64 w v =
  ensure w 8;
  Bytes.set_int64_le w.buf w.len v;
  w.len <- w.len + 8

let w_int w v = w_i64 w (Int64.of_int v)
let w_float w v = w_i64 w (Int64.bits_of_float v)
let w_bool w b = w_u8 w (if b then 1 else 0)

let w_bytes w b =
  let n = Bytes.length b in
  w_int w n;
  ensure w n;
  Bytes.blit b 0 w.buf w.len n;
  w.len <- w.len + n

let w_string w s = w_bytes w (Bytes.unsafe_of_string s)

let w_int_array w a =
  w_int w (Array.length a);
  ensure w (8 * Array.length a);
  for i = 0 to Array.length a - 1 do
    Bytes.set_int64_le w.buf (w.len + (8 * i)) (Int64.of_int a.(i))
  done;
  w.len <- w.len + (8 * Array.length a)

let w_float_array w a =
  w_int w (Array.length a);
  Array.iter (w_float w) a

let contents w = Bytes.sub w.buf 0 w.len
let length w = w.len

(* --- reader ---------------------------------------------------------------- *)

type r = { data : Bytes.t; mutable pos : int }

exception Corrupt of string

let corrupt what = raise (Corrupt ("Bin: " ^ what))
let reader data = { data; pos = 0 }

let need r n =
  if r.pos + n > Bytes.length r.data then corrupt "truncated input"

let r_u8 r =
  need r 1;
  let v = Char.code (Bytes.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let r_i64 r =
  need r 8;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r = Int64.to_int (r_i64 r)
let r_float r = Int64.float_of_bits (r_i64 r)

let r_bool r =
  match r_u8 r with 0 -> false | 1 -> true | _ -> corrupt "bad bool"

let r_bytes r =
  let n = r_int r in
  if n < 0 then corrupt "negative blob length";
  need r n;
  let b = Bytes.sub r.data r.pos n in
  r.pos <- r.pos + n;
  b

let r_string r = Bytes.unsafe_to_string (r_bytes r)

let r_int_array r =
  let n = r_int r in
  if n < 0 then corrupt "negative array length";
  need r (8 * n);
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- Int64.to_int (Bytes.get_int64_le r.data (r.pos + (8 * i)))
  done;
  r.pos <- r.pos + (8 * n);
  a

let r_float_array r =
  let n = r_int r in
  if n < 0 then corrupt "negative array length";
  Array.init n (fun _ -> r_float r)

let r_pos r = r.pos
let r_left r = Bytes.length r.data - r.pos

(* SplitMix64's finalizer: a bijection on 64-bit words. *)
let[@inline] mix x =
  let x =
    Int64.mul
      (Int64.logxor x (Int64.shift_right_logical x 30))
      0xBF58476D1CE4E5B9L
  in
  let x =
    Int64.mul
      (Int64.logxor x (Int64.shift_right_logical x 27))
      0x94D049BB133111EBL
  in
  Int64.logxor x (Int64.shift_right_logical x 31)

let checksum_seed = 0x9E3779B97F4A7C15L
let to_63 h = Int64.to_int (Int64.logand h 0x7FFFFFFFFFFFFFFFL)

(* 63-bit rolling checksum over a byte range: SplitMix64's finalizer
   applied per byte. Cheap, order-sensitive, and catches the single-word
   corruptions a torn snapshot write would produce. *)
let checksum data ~pos ~len =
  let h = ref checksum_seed in
  for i = pos to pos + len - 1 do
    h := mix (Int64.add !h (Int64.of_int (Char.code (Bytes.unsafe_get data i))))
  done;
  to_63 !h

(* The same roll over little-endian 64-bit words, then the tail bytes one
   at a time: one finalizer step per eight bytes. Each step is a
   bijection of the running state for a fixed input, so a change to any
   single word or byte always changes the result before truncation. *)
let word_checksum data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Bin.word_checksum";
  let h = ref checksum_seed in
  let words = len / 8 in
  for i = 0 to words - 1 do
    h := mix (Int64.add !h (Bytes.get_int64_le data (pos + (8 * i))))
  done;
  for i = pos + (8 * words) to pos + len - 1 do
    h := mix (Int64.add !h (Int64.of_int (Char.code (Bytes.unsafe_get data i))))
  done;
  to_63 !h
