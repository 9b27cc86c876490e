open Warden_mem

(* A view of one line's storage: 64 data bytes at [pos] of [buf] and the
   byte-sector dirty mask as two 32-bit halves at [mask.(mi)] (bytes
   0-31) and [mask.(mi + 1)] (bytes 32-63). A pooled line's view points
   into its pool's page (Linepool); a standalone line owns a 64-byte
   buffer and a two-element mask. The halves are immediate ints, so a
   store updates the mask without allocating. *)
type t = { buf : Bytes.t; pos : int; mask : int array; mi : int }

let view buf ~pos mask ~mi = { buf; pos; mask; mi }

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

let check off size =
  match size with
  | 1 | 2 | 4 | 8 ->
      if off < 0 || off + size > Addr.block_size || off land (size - 1) <> 0
      then invalid_arg "Linedata: bad offset"
  | _ -> invalid_arg "Linedata: bad size"

let load_in buf ~pos ~off ~size =
  check off size;
  let i = pos + off in
  match size with
  | 1 -> Int64.of_int (Char.code (Bytes.get buf i))
  | 2 -> Int64.of_int (Bytes.get_uint16_le buf i)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le buf i)) 0xFFFFFFFFL
  | _ -> Bytes.get_int64_le buf i

(* An aligned access of at most 8 bytes, widened to sector boundaries of
   at most 8 bytes, stays inside one 8-byte group — so inside one mask
   half. The widening is [range_mask]'s. *)
let store_in buf ~pos mask ~mi ~off ~size v =
  check off size;
  let i = pos + off in
  (match size with
  | 1 -> Bytes.set buf i (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | 2 -> Bytes.set_uint16_le buf i (Int64.to_int (Int64.logand v 0xFFFFL))
  | 4 -> Bytes.set_int32_le buf i (Int64.to_int32 v)
  | _ -> Bytes.set_int64_le buf i v);
  let g = !sector in
  let o = off land lnot (g - 1) in
  let n = (size + g - 1) land lnot (g - 1) in
  let h = mi + (o lsr 5) in
  mask.(h) <- mask.(h) lor (((1 lsl n) - 1) lsl (o land 31))

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
