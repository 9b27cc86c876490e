(* Memory is held block by block. A page table maps each touched 64 KiB
   page to the line index of each of its 1,024 blocks ([unwritten] until
   the block's first write); written 64-byte lines live in an arena of
   4 KiB chunks that are allocated on demand and never move. The
   simulated address space is sparse by design (every task allocates into
   fresh pages of its own), so host memory follows the lines written, not
   the address range touched. *)

module Itab = Warden_util.Itab
module Bitset = Warden_util.Bitset

let page_bits = 16
let page_size = 1 lsl page_bits
let page_blocks = page_size / Addr.block_size
let chunk_bits = 6 (* lines per chunk, log2 *)
let chunk_lines = 1 lsl chunk_bits
let unwritten = -1
let no_page : int array = [||]
let no_chunk = Bytes.empty

type t = {
  mutable pages : int array Itab.t;
  written_blocks : Bitset.t;
  mutable chunks : Bytes.t array;
  mutable lines : int;
  (* One-entry cache of the last page touched: simulated accesses are
     heavily clustered (stacks, sequential arrays), so most lookups skip
     even the single Itab probe. *)
  mutable last_id : int;
  mutable last_page : int array;
}

let create () =
  {
    pages = Itab.create ~dummy:no_page ();
    written_blocks = Bitset.create ();
    chunks = Array.make 4 no_chunk;
    lines = 0;
    last_id = -1;
    last_page = no_page;
  }

let materialized t blk = Bitset.mem t.written_blocks blk

let new_page _ = Array.make page_blocks unwritten

(* Every access touches its page, reads included: the page set is part of
   the snapshot. *)
let page t addr =
  let id = addr lsr page_bits in
  if id = t.last_id then t.last_page
  else begin
    let p = Itab.find_or_add t.pages id ~make:new_page in
    t.last_page <- p;
    t.last_id <- id;
    p
  end

let[@inline] slot addr = (addr land (page_size - 1)) lsr Addr.block_bits
let[@inline] chunk t l = Array.unsafe_get t.chunks (l lsr chunk_bits)
let[@inline] line_pos l = (l land (chunk_lines - 1)) lsl Addr.block_bits

(* The line of slot [i] of page [p], allocated zeroed on first write. *)
let line_for_write t p i =
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
  let l = Array.unsafe_get (page t addr) (slot addr) in
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
  Bitset.add t.written_blocks (Addr.block_of addr);
  let l = line_for_write t (page t addr) (slot addr) in
  let c = chunk t l in
  let off = line_pos l lor Addr.offset_in_block addr in
  match size with
  | 1 -> Bytes.set c off (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | 2 -> Bytes.set_uint16_le c off (Int64.to_int (Int64.logand v 0xFFFFL))
  | 4 -> Bytes.set_int32_le c off (Int64.to_int32 v)
  | _ -> Bytes.set_int64_le c off v

let read_block_into t blk dst ~pos =
  let addr = Addr.base_of_block blk in
  let l = Array.unsafe_get (page t addr) (slot addr) in
  if l < 0 then Bytes.fill dst pos Addr.block_size '\000'
  else Bytes.blit (chunk t l) (line_pos l) dst pos Addr.block_size

let read_block t blk =
  let b = Bytes.create Addr.block_size in
  read_block_into t blk b ~pos:0;
  b

let write_line t blk data ~pos ~lo ~hi =
  let addr = Addr.base_of_block blk in
  let p = page t addr in
  if lo lor hi <> 0 then begin
    Bitset.add t.written_blocks blk;
    let l = line_for_write t p (slot addr) in
    Sector.blit_masked ~src:data ~src_pos:pos ~dst:(chunk t l)
      ~dst_pos:(line_pos l) ~lo ~hi
  end

let write_block_masked t blk data ~mask =
  write_line t blk data ~pos:0 ~lo:(Sector.lo_of mask) ~hi:(Sector.hi_of mask)

let footprint_bytes t = t.lines * Addr.block_size

(* [Bitset.copy] keeps the word array's length, which {!save} writes: a
   copy snapshots byte for byte like its original. *)
let copy t =
  let c = { (create ()) with written_blocks = Bitset.copy t.written_blocks } in
  Itab.iter t.pages (fun id p ->
      ignore (Itab.find_or_add c.pages id ~make:(fun _ -> Array.copy p)));
  c.chunks <- Array.map Bytes.copy t.chunks;
  c.lines <- t.lines;
  c

(* Snapshot: each touched page's 64 KiB image, assembled from its lines
   (the page table sorted by page id — canonical bytes), then the
   written-block set. Line indices and the one-entry page cache are
   host-side and are rebuilt on restore. *)
let save t w =
  let image = Bytes.create page_size in
  Itab.save t.pages w ~elt:(fun w p ->
      Bytes.fill image 0 page_size '\000';
      Array.iteri
        (fun i l ->
          if l >= 0 then
            Bytes.blit (chunk t l) (line_pos l) image
              (i lsl Addr.block_bits) Addr.block_size)
        p;
      Warden_util.Bin.w_bytes w image);
  Bitset.save t.written_blocks w

let zero_block image pos =
  let rec go i =
    i >= Addr.block_size
    || (Bytes.get_int64_ne image (pos + i) = 0L && go (i + 8))
  in
  go 0

(* A block holds a line exactly when it was written, so a written block
   outside the page set, or data in a block never written, is corrupt.
   The lines are rebuilt aside, and the store is left untouched on
   failure. The written-block set is re-added in ascending order into
   this store's own set, as it always was: its word-array length, which
   {!save} writes, is part of a restored continuation's snapshot bytes. *)
let restore t r =
  let corrupt = Warden_util.Bin.corrupt in
  let images =
    Itab.load r ~dummy:Bytes.empty ~elt:(fun r ->
        let p = Warden_util.Bin.r_bytes r in
        if Bytes.length p <> page_size then corrupt "Store: bad page size";
        p)
  in
  let written = Bitset.load r in
  let s = create () in
  Itab.iter images (fun id image ->
      let p = Itab.find_or_add s.pages id ~make:new_page in
      for i = 0 to page_blocks - 1 do
        let pos = i lsl Addr.block_bits in
        if Bitset.mem written ((id * page_blocks) + i) then begin
          let l = line_for_write s p i in
          Bytes.blit image pos (chunk s l) (line_pos l) Addr.block_size
        end
        else if not (zero_block image pos) then
          corrupt "Store: data in a never-written block"
      done);
  Bitset.iter written (Bitset.add s.written_blocks);
  if s.lines <> Bitset.cardinal s.written_blocks then
    corrupt "Store: written block outside the page set";
  t.pages <- s.pages;
  t.chunks <- s.chunks;
  t.lines <- s.lines;
  t.last_id <- -1;
  t.last_page <- no_page;
  Bitset.clear t.written_blocks;
  Bitset.iter written (Bitset.add t.written_blocks)
