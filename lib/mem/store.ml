(* 64 KiB pages keep the hashtable small while avoiding huge allocations for
   sparse address ranges. *)
let page_bits = 16
let page_size = 1 lsl page_bits

let no_page = Bytes.create 0

type t = {
  mutable pages : Bytes.t Warden_util.Itab.t;
  written_blocks : Warden_util.Bitset.t;
  (* One-entry cache of the last page touched: simulated accesses are
     heavily clustered (stacks, sequential arrays), so most lookups skip
     even the single Itab probe. *)
  mutable last_id : int;
  mutable last_page : Bytes.t;
}

let create () =
  {
    pages = Warden_util.Itab.create ~dummy:no_page ();
    written_blocks = Warden_util.Bitset.create ();
    last_id = -1;
    last_page = no_page;
  }

(* Hot path (once per simulated store): no list, and accesses almost never
   straddle a block boundary. *)
let mark_written t addr len =
  let first = Addr.block_of addr in
  let last = Addr.block_of (addr + len - 1) in
  Warden_util.Bitset.add t.written_blocks first;
  for blk = first + 1 to last do
    Warden_util.Bitset.add t.written_blocks blk
  done

let materialized t blk = Warden_util.Bitset.mem t.written_blocks blk

let new_page _ = Bytes.make page_size '\000'

let page t addr =
  let id = addr lsr page_bits in
  if id = t.last_id then t.last_page
  else begin
    let p = Warden_util.Itab.find_or_add t.pages id ~make:new_page in
    t.last_page <- p;
    t.last_id <- id;
    p
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
  let p = page t addr in
  let off = addr land (page_size - 1) in
  match size with
  | 1 -> Int64.of_int (Char.code (Bytes.get p off))
  | 2 -> Int64.of_int (Bytes.get_uint16_le p off)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le p off)) 0xFFFFFFFFL
  | _ -> Bytes.get_int64_le p off

let store t addr ~size v =
  check_access addr size;
  mark_written t addr size;
  let p = page t addr in
  let off = addr land (page_size - 1) in
  match size with
  | 1 -> Bytes.set p off (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | 2 -> Bytes.set_uint16_le p off (Int64.to_int (Int64.logand v 0xFFFFL))
  | 4 -> Bytes.set_int32_le p off (Int64.to_int32 v)
  | _ -> Bytes.set_int64_le p off v

(* Page and offset of a block: blocks never straddle pages, since the
   page size is a multiple of the block size. *)
let block_page t blk = page t (Addr.base_of_block blk)
let block_off blk = Addr.base_of_block blk land (page_size - 1)

let read_block t blk =
  Bytes.sub (block_page t blk) (block_off blk) Addr.block_size

let read_block_into t blk dst ~pos =
  Bytes.blit (block_page t blk) (block_off blk) dst pos Addr.block_size

let write_line t blk data ~pos ~lo ~hi =
  if lo lor hi <> 0 then Warden_util.Bitset.add t.written_blocks blk;
  Sector.blit_masked ~src:data ~src_pos:pos ~dst:(block_page t blk)
    ~dst_pos:(block_off blk) ~lo ~hi

let write_block_masked t blk data ~mask =
  write_line t blk data ~pos:0 ~lo:(Sector.lo_of mask) ~hi:(Sector.hi_of mask)

let footprint_bytes t = Warden_util.Itab.length t.pages * page_size

let copy t =
  let module B = Warden_util.Bitset in
  let module I = Warden_util.Itab in
  let c = create () in
  B.iter t.written_blocks (B.add c.written_blocks);
  I.iter t.pages (fun id p ->
      ignore (I.find_or_add c.pages id ~make:(fun _ -> Bytes.copy p)));
  c

(* Snapshot: the page table (sorted by page id — canonical bytes) and the
   written-block set. The one-entry page cache is host-side and resets. *)
let save t w =
  Warden_util.Itab.save t.pages w ~elt:Warden_util.Bin.w_bytes;
  Warden_util.Bitset.save t.written_blocks w

let restore t r =
  t.pages <-
    Warden_util.Itab.load r ~dummy:no_page ~elt:(fun r ->
        let p = Warden_util.Bin.r_bytes r in
        if Bytes.length p <> page_size then
          Warden_util.Bin.corrupt "Store: bad page size";
        p);
  let written = Warden_util.Bitset.load r in
  Warden_util.Bitset.clear t.written_blocks;
  Warden_util.Bitset.iter written (Warden_util.Bitset.add t.written_blocks);
  t.last_id <- -1;
  t.last_page <- no_page
