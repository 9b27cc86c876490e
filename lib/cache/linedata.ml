open Warden_mem

(* A view of one line's storage: 64 data bytes at [pos] of [buf] and the
   byte-sector dirty mask as two 32-bit halves at [mask.(mi)] (bytes
   0-31) and [mask.(mi + 1)] (bytes 32-63). A pooled line's view points
   into its pool's page (Linepool); a standalone line owns a 64-byte
   buffer and a two-element mask. The halves are immediate ints, so a
   store updates the mask without allocating. *)
type t = { buf : Bytes.t; pos : int; mask : int array; mi : int }

let view buf ~pos mask ~mi =
  if
    pos < 0
    || pos > Bytes.length buf - Addr.block_size
    || mi < 0
    || mi > Array.length mask - 2
  then invalid_arg "Linedata.view: line outside its storage";
  { buf; pos; mask; mi }

let of_bytes b =
  if Bytes.length b <> Addr.block_size then invalid_arg "Linedata.of_bytes";
  { buf = b; pos = 0; mask = [| 0; 0 |]; mi = 0 }

let create () = of_bytes (Bytes.make Addr.block_size '\000')
let bytes t = Bytes.sub t.buf t.pos Addr.block_size
let dirty_mask t = Sector.to_int64 ~lo:t.mask.(t.mi) ~hi:t.mask.(t.mi + 1)
let is_dirty t = t.mask.(t.mi) lor t.mask.(t.mi + 1) <> 0

let set_mask t ~lo ~hi =
  t.mask.(t.mi) <- lo;
  t.mask.(t.mi + 1) <- hi

let copy t =
  let c = of_bytes (bytes t) in
  set_mask c ~lo:t.mask.(t.mi) ~hi:t.mask.(t.mi + 1);
  c

let clear_dirty t = set_mask t ~lo:0 ~hi:0
let mark_all_dirty t = set_mask t ~lo:0xFFFF_FFFF ~hi:0xFFFF_FFFF

let sector = ref 1

let set_sector_bytes n =
  match n with
  | 1 | 2 | 4 | 8 -> sector := n
  | _ -> invalid_arg "Linedata.set_sector_bytes"

let sector_bytes () = !sector

let range_mask ~off ~size =
  (* Expand to sector boundaries: coarse sectoring marks every byte of each
     touched sector as written. *)
  let g = !sector in
  let off = off land lnot (g - 1) in
  let size = (size + g - 1) land lnot (g - 1) in
  (* size = 64 would overflow the shift; the block size is 64 so a full-line
     mask only arises from size = block_size. *)
  if size >= 64 then -1L
  else Int64.shift_left (Int64.sub (Int64.shift_left 1L size) 1L) off

let[@inline] check off size =
  match size with
  | 1 | 2 | 4 | 8 ->
      if off < 0 || off + size > Addr.block_size || off land (size - 1) <> 0
      then invalid_arg "Linedata: bad offset"
  | _ -> invalid_arg "Linedata: bad size"

(* Unchecked little-endian accesses. [load_in] and [store_in] run on every
   simulated hit: a checked access reads the length of a 4 KiB pool page
   from its last word, one more host cache line per access. Their
   callers pass a line position inside [buf] ([view] checks it, a pool
   computes it), and [check] keeps [off] and [size] inside the line. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] load_in buf ~pos ~off ~size =
  check off size;
  let i = pos + off in
  match size with
  | 1 -> Int64.of_int (Char.code (Bytes.unsafe_get buf i))
  | 2 ->
      let x = get16u buf i in
      Int64.of_int (if Sys.big_endian then bswap16 x else x)
  | 4 ->
      let x = get32u buf i in
      Int64.logand
        (Int64.of_int32 (if Sys.big_endian then bswap32 x else x))
        0xFFFFFFFFL
  | _ ->
      let x = get64u buf i in
      if Sys.big_endian then bswap64 x else x

(* An aligned access of at most 8 bytes, widened to sector boundaries of
   at most 8 bytes, stays inside one 8-byte group — so inside one mask
   half. The widening is [range_mask]'s. *)
let[@inline] store_in buf ~pos mask ~mi ~off ~size v =
  check off size;
  let i = pos + off in
  (match size with
  | 1 -> Bytes.unsafe_set buf i (Char.unsafe_chr (Int64.to_int v land 0xFF))
  | 2 ->
      let x = Int64.to_int v land 0xFFFF in
      set16u buf i (if Sys.big_endian then bswap16 x else x)
  | 4 ->
      let x = Int64.to_int32 v in
      set32u buf i (if Sys.big_endian then bswap32 x else x)
  | _ -> set64u buf i (if Sys.big_endian then bswap64 v else v));
  let g = !sector in
  let o = off land lnot (g - 1) in
  let n = (size + g - 1) land lnot (g - 1) in
  let h = mi + (o lsr 5) in
  Array.unsafe_set mask h
    (Array.unsafe_get mask h lor (((1 lsl n) - 1) lsl (o land 31)))

let fill_in buf ~pos mask ~mi src =
  Bytes.blit src.buf src.pos buf pos Addr.block_size;
  mask.(mi) <- 0;
  mask.(mi + 1) <- 0

let load t ~off ~size = load_in t.buf ~pos:t.pos ~off ~size

let store t ~off ~size v =
  store_in t.buf ~pos:t.pos t.mask ~mi:t.mi ~off ~size v

let fill_from t src = fill_in t.buf ~pos:t.pos t.mask ~mi:t.mi src

let merge_masked ~dst ~src =
  let lo = src.mask.(src.mi) and hi = src.mask.(src.mi + 1) in
  Sector.blit_masked ~src:src.buf ~src_pos:src.pos ~dst:dst.buf ~dst_pos:dst.pos
    ~lo ~hi;
  set_mask dst ~lo:(dst.mask.(dst.mi) lor lo) ~hi:(dst.mask.(dst.mi + 1) lor hi)

let write_back t store blk =
  Store.write_line store blk t.buf ~pos:t.pos ~lo:t.mask.(t.mi)
    ~hi:t.mask.(t.mi + 1)

let save t w =
  Warden_util.Bin.w_bytes w (bytes t);
  Warden_util.Bin.w_i64 w (dirty_mask t)

let restore t r =
  let data = Warden_util.Bin.r_bytes r in
  if Bytes.length data <> Addr.block_size then
    Warden_util.Bin.corrupt "Linedata: bad line size";
  Bytes.blit data 0 t.buf t.pos Addr.block_size;
  let m = Warden_util.Bin.r_i64 r in
  set_mask t ~lo:(Sector.lo_of m) ~hi:(Sector.hi_of m)
