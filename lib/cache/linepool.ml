(* Parallel page tables: page [p] holds slots [p * page_slots,
   (p + 1) * page_slots). The tables grow by doubling, but they hold only
   pointers to pages; a page is allocated once and never moved or copied.
   The free list is threaded through the state array: a free slot's state
   is the next free slot, or -1. *)

let page_bits = 6
let page_slots = 1 lsl page_bits
let line = Warden_mem.Addr.block_size

type t = {
  mutable data : Bytes.t array; (* page_slots * line bytes per page *)
  mutable mask : int array array; (* two 32-bit halves per slot *)
  mutable state : int array array; (* one int per slot *)
  mutable npages : int;
  mutable free : int; (* head of the free list, -1 when empty *)
}

let create () =
  { data = [||]; mask = [||]; state = [||]; npages = 0; free = -1 }
let pages t = t.npages

let grow a dummy n =
  let b = Array.make n dummy in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Push page [p]'s slots on the free list, lowest slot on top. *)
let link_page t p =
  let st = t.state.(p) and base = p lsl page_bits in
  for i = page_slots - 1 downto 0 do
    st.(i) <- t.free;
    t.free <- base + i
  done

let add_page t =
  let p = t.npages in
  if p = Array.length t.data then begin
    let n = max 4 (2 * p) in
    t.data <- grow t.data Bytes.empty n;
    t.mask <- grow t.mask [||] n;
    t.state <- grow t.state [||] n
  end;
  t.data.(p) <- Bytes.make (page_slots * line) '\000';
  t.mask.(p) <- Array.make (2 * page_slots) 0;
  t.state.(p) <- Array.make page_slots 0;
  t.npages <- p + 1;
  link_page t p

let[@inline] page s = s lsr page_bits
let[@inline] idx s = s land (page_slots - 1)
let[@inline] pos s = idx s * line
let[@inline] mi s = idx s * 2

let state t s = Array.unsafe_get (Array.unsafe_get t.state (page s)) (idx s)
let set_state t s v =
  Array.unsafe_set (Array.unsafe_get t.state (page s)) (idx s) v

let alloc t =
  if t.free < 0 then add_page t;
  let s = t.free in
  t.free <- state t s;
  s

let free t s =
  set_state t s t.free;
  t.free <- s

let reset t =
  t.free <- -1;
  for p = t.npages - 1 downto 0 do
    link_page t p
  done

let view t s =
  Linedata.view t.data.(page s) ~pos:(pos s) t.mask.(page s) ~mi:(mi s)

let set_mask t s v =
  let m = t.mask.(page s) and i = mi s in
  m.(i) <- v;
  m.(i + 1) <- v

let fill t s src =
  Linedata.fill_in t.data.(page s) ~pos:(pos s) t.mask.(page s) ~mi:(mi s) src

let fill_zero t s =
  Bytes.fill t.data.(page s) (pos s) line '\000';
  set_mask t s 0

let fill_block t s store blk =
  Warden_mem.Store.read_block_into store blk t.data.(page s) ~pos:(pos s);
  set_mask t s 0

let mark_all_dirty t s = set_mask t s 0xFFFF_FFFF

let load t s ~off ~size =
  Linedata.load_in (Array.unsafe_get t.data (page s)) ~pos:(pos s) ~off ~size

let store t s ~off ~size v =
  let p = page s in
  Linedata.store_in (Array.unsafe_get t.data p) ~pos:(pos s)
    (Array.unsafe_get t.mask p) ~mi:(mi s) ~off ~size v

let is_dirty t s =
  let m = t.mask.(page s) and i = mi s in
  m.(i) lor m.(i + 1) <> 0
