(* Memory is held block by block. A page table maps each written 64 KiB
   page to the line index of each of its 1,024 blocks ([unwritten] until
   the block's first write); written 64-byte lines live in an arena of
   4 KiB chunks that are allocated on demand and never move. A block
   holds a line exactly when it was written, so the page table is also
   the written-block set. The simulated address space is sparse by
   design (every task allocates into fresh pages of its own), so host
   memory follows the lines written, not the address range touched. *)

module Itab = Warden_util.Itab

let page_bits = 16
let page_size = 1 lsl page_bits
let page_blocks = page_size / Addr.block_size
let chunk_bits = 6 (* lines per chunk, log2 *)
let chunk_lines = 1 lsl chunk_bits
let unwritten = -1
let no_chunk = Bytes.empty

(* The page of every block never written: reads go through it, and
   nothing writes into it. *)
let no_page = Array.make page_blocks unwritten

type t = {
  mutable pages : int array Itab.t;
  mutable chunks : Bytes.t array;
  mutable lines : int;
  (* One-entry cache of the last page looked up, [no_page] when it has
     none: simulated accesses are heavily clustered (stacks, sequential
     arrays), so most lookups skip even the single Itab probe. *)
  mutable last_id : int;
  mutable last_page : int array;
}

let create () =
  {
    pages = Itab.create ~dummy:no_page ();
    chunks = Array.make 4 no_chunk;
    lines = 0;
    last_id = -1;
    last_page = no_page;
  }

let[@inline] page_id addr = addr lsr page_bits

(* The page of [id], or [no_page]: a lookup adds no page. *)
let find_page t id =
  if id = t.last_id then t.last_page
  else begin
    let p = Itab.find_or t.pages id ~default:no_page in
    t.last_page <- p;
    t.last_id <- id;
    p
  end

let page_for_write t id =
  let p = find_page t id in
  if p != no_page then p
  else begin
    let p =
      Itab.find_or_add t.pages id ~make:(fun _ ->
          Array.make page_blocks unwritten)
    in
    t.last_page <- p;
    p
  end

let[@inline] slot addr = (addr land (page_size - 1)) lsr Addr.block_bits
let[@inline] chunk t l = Array.unsafe_get t.chunks (l lsr chunk_bits)
let[@inline] line_pos l = (l land (chunk_lines - 1)) lsl Addr.block_bits

(* The line of [addr]'s block, or [unwritten]. *)
let[@inline] line_of t addr =
  Array.unsafe_get (find_page t (page_id addr)) (slot addr)

let materialized t blk = line_of t (Addr.base_of_block blk) >= 0

(* The line of [addr]'s block, allocated zeroed on first write. *)
let line_for_write t addr =
  let p = page_for_write t (page_id addr) in
  let i = slot addr in
  let l = Array.unsafe_get p i in
  if l >= 0 then l
  else begin
    let l = t.lines in
    let c = l lsr chunk_bits in
    if c = Array.length t.chunks then begin
      let grown = Array.make (2 * c) no_chunk in
      Array.blit t.chunks 0 grown 0 c;
      t.chunks <- grown
    end;
    if line_pos l = 0 then
      t.chunks.(c) <- Bytes.make (chunk_lines * Addr.block_size) '\000';
    t.lines <- l + 1;
    p.(i) <- l;
    l
  end

let check_access addr size =
  (match size with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> invalid_arg "Store: size must be 1, 2, 4 or 8");
  if addr land (size - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Store: unaligned %d-byte access at 0x%x" size addr)

let load t addr ~size =
  check_access addr size;
  let l = line_of t addr in
  if l < 0 then 0L
  else
    let c = chunk t l in
    let off = line_pos l lor Addr.offset_in_block addr in
    match size with
    | 1 -> Int64.of_int (Char.code (Bytes.get c off))
    | 2 -> Int64.of_int (Bytes.get_uint16_le c off)
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le c off)) 0xFFFFFFFFL
    | _ -> Bytes.get_int64_le c off

(* An aligned access of at most 8 bytes never straddles a block. *)
let store t addr ~size v =
  check_access addr size;
  let l = line_for_write t addr in
  let c = chunk t l in
  let off = line_pos l lor Addr.offset_in_block addr in
  match size with
  | 1 -> Bytes.set c off (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | 2 -> Bytes.set_uint16_le c off (Int64.to_int (Int64.logand v 0xFFFFL))
  | 4 -> Bytes.set_int32_le c off (Int64.to_int32 v)
  | _ -> Bytes.set_int64_le c off v

let read_block_into t blk dst ~pos =
  let l = line_of t (Addr.base_of_block blk) in
  if l < 0 then Bytes.fill dst pos Addr.block_size '\000'
  else Bytes.blit (chunk t l) (line_pos l) dst pos Addr.block_size

let read_block t blk =
  let b = Bytes.create Addr.block_size in
  read_block_into t blk b ~pos:0;
  b

let write_line t blk data ~pos ~lo ~hi =
  if lo lor hi <> 0 then begin
    let l = line_for_write t (Addr.base_of_block blk) in
    Sector.blit_masked ~src:data ~src_pos:pos ~dst:(chunk t l)
      ~dst_pos:(line_pos l) ~lo ~hi
  end

let write_block_masked t blk data ~mask =
  write_line t blk data ~pos:0 ~lo:(Sector.lo_of mask) ~hi:(Sector.hi_of mask)

let footprint_bytes t = t.lines * Addr.block_size

let copy t =
  let c = create () in
  Itab.iter t.pages (fun id p ->
      ignore (Itab.find_or_add c.pages id ~make:(fun _ -> Array.copy p)));
  c.chunks <- Array.map Bytes.copy t.chunks;
  c.lines <- t.lines;
  c

(* Snapshot: the written lines as (block, 64 bytes) in ascending block
   order, so equal contents save equal bytes whatever order they were
   written in. Line placement and the page cache are host-side. *)
let save t w =
  let module B = Warden_util.Bin in
  let ids = Array.make (Itab.length t.pages) 0 and n = ref 0 in
  Itab.iter t.pages (fun id _ ->
      ids.(!n) <- id;
      incr n);
  Array.sort Int.compare ids;
  B.w_int w t.lines;
  Array.iter
    (fun id ->
      let p = Itab.find_or t.pages id ~default:no_page in
      Array.iteri
        (fun i l ->
          if l >= 0 then begin
            B.w_int w ((id * page_blocks) + i);
            for k = 0 to (Addr.block_size / 8) - 1 do
              B.w_i64 w (Bytes.get_int64_le (chunk t l) (line_pos l + (8 * k)))
            done
          end)
        p)
    ids

(* The lines are rebuilt into a fresh store and installed only once all
   of them have read back ascending, so a malformed snapshot leaves the
   store as it was. *)
let restore t r =
  let module B = Warden_util.Bin in
  let n = B.r_int r in
  if n < 0 || n > B.r_left r / (Addr.block_size + 8) then
    B.corrupt "Store: bad line count";
  let s = create () in
  let prev = ref (-1) in
  for _ = 1 to n do
    let blk = B.r_int r in
    if blk < 0 || blk > max_int lsr Addr.block_bits then
      B.corrupt "Store: block out of range";
    if blk = !prev then B.corrupt "Store: block written twice";
    if blk < !prev then B.corrupt "Store: lines not ascending";
    prev := blk;
    let l = line_for_write s (Addr.base_of_block blk) in
    for k = 0 to (Addr.block_size / 8) - 1 do
      Bytes.set_int64_le (chunk s l) (line_pos l + (8 * k)) (B.r_i64 r)
    done
  done;
  t.pages <- s.pages;
  t.chunks <- s.chunks;
  t.lines <- s.lines;
  t.last_id <- -1;
  t.last_page <- no_page
