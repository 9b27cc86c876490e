open Warden_util

(* The Itab maps a block (or a region's lo address) to its row index.
   A block's row is its number followed by one count per heat class;
   rows live in pages of [page_rows] that are allocated on the first
   touch of a new block and never move. A run that misses on thousands
   of fresh blocks so allocates each row once, instead of again at every
   doubling of flat arrays. Region rows are few and live in growable
   flat arrays. *)

type t = {
  slots : int Itab.t; (* blk -> row *)
  mutable pages : int array array; (* row lsr page_bits -> rows *)
  warded : Bitset.t; (* rows ever covered by a WARD region *)
  mutable rows : int;
  (* regions, keyed by lo *)
  rslots : int Itab.t;
  mutable rlo : int array;
  mutable rhi : int array;
  mutable renters : int array;
  mutable rexits : int array;
  mutable rflushed : int array;
  mutable rrows : int;
}

let ncls = Events.heat_classes
let stride = 1 + ncls
let page_bits = 6
let page_rows = 1 lsl page_bits
let no_row = -1

let create () =
  {
    slots = Itab.create ~dummy:no_row ();
    pages = [||];
    warded = Bitset.create ();
    rows = 0;
    rslots = Itab.create ~dummy:no_row ();
    rlo = [||];
    rhi = [||];
    renters = [||];
    rexits = [||];
    rflushed = [||];
    rrows = 0;
  }

(* Double [a], to at least [n] elements. *)
let grow a n = Array.append a (Array.make (max n (Array.length a)) 0)

(* Row [row]'s page, and the index of its block number there; its
   count of class [c] follows at [+ 1 + c]. *)
let[@inline] page t row = Array.unsafe_get t.pages (row lsr page_bits)
let[@inline] base row = (row land (page_rows - 1)) * stride

let new_row t blk =
  let row = t.rows in
  let p = row lsr page_bits in
  if p = Array.length t.pages then
    t.pages <- Array.append t.pages (Array.make (max 1 p) [||]);
  if base row = 0 then t.pages.(p) <- Array.make (page_rows * stride) 0;
  t.pages.(p).(base row) <- blk;
  t.rows <- row + 1;
  ignore (Itab.find_or_add t.slots blk ~make:(fun _ -> row));
  row

let row_of t blk =
  let r = Itab.find_or t.slots blk ~default:no_row in
  if r >= 0 then r else new_row t blk

let touch_block t ~blk ~cls =
  let row = row_of t blk in
  let pg = page t row and i = base row + 1 + cls in
  pg.(i) <- pg.(i) + 1

let mark_ward t ~blk = Bitset.add t.warded (row_of t blk)

let rrow_of t lo =
  let r = Itab.find_or t.rslots lo ~default:no_row in
  if r >= 0 then r
  else begin
    let row = t.rrows in
    if row >= Array.length t.rlo then begin
      t.rlo <- grow t.rlo 8;
      t.rhi <- grow t.rhi 8;
      t.renters <- grow t.renters 8;
      t.rexits <- grow t.rexits 8;
      t.rflushed <- grow t.rflushed 8
    end;
    t.rlo.(row) <- lo;
    t.rrows <- row + 1;
    ignore (Itab.find_or_add t.rslots lo ~make:(fun _ -> row));
    row
  end

let touch_region t ~lo ~hi ~exit ~flushed =
  let row = rrow_of t lo in
  t.rhi.(row) <- max t.rhi.(row) hi;
  if exit then begin
    t.rexits.(row) <- t.rexits.(row) + 1;
    t.rflushed.(row) <- t.rflushed.(row) + flushed
  end
  else t.renters.(row) <- t.renters.(row) + 1

let blocks t = t.rows

let blk_of t row = (page t row).(base row)
let cell t row c = (page t row).(base row + 1 + c)

let block_count t ~blk ~cls =
  let r = Itab.find_or t.slots blk ~default:no_row in
  if r < 0 then 0 else cell t r cls

let row_total t row =
  let s = ref 0 in
  for c = 0 to ncls - 1 do
    s := !s + cell t row c
  done;
  !s

let top_blocks t ~n =
  let rows = Array.init t.rows Fun.id in
  Array.sort
    (fun a b ->
      let ta = row_total t a and tb = row_total t b in
      if ta <> tb then compare tb ta else compare (blk_of t a) (blk_of t b))
    rows;
  let n = min n t.rows in
  List.init n (fun i ->
      let row = rows.(i) in
      (blk_of t row, Array.init ncls (cell t row), Bitset.mem t.warded row))

let regions t =
  List.sort compare
    (List.init t.rrows (fun row ->
         (t.rlo.(row), t.rhi.(row), t.renters.(row), t.rexits.(row),
          t.rflushed.(row))))

let render_blocks t ~n =
  let header =
    "block" :: List.init ncls Events.heat_class_name @ [ "ward?" ]
  in
  let rows =
    List.map
      (fun (blk, cells, ward) ->
        Printf.sprintf "0x%x" blk
        :: List.map string_of_int (Array.to_list cells)
        @ [ (if ward then "yes" else "") ])
      (top_blocks t ~n)
  in
  if rows = [] then "(no block events recorded)\n"
  else Table.render ~header ~rows

let render_regions t =
  let rows =
    List.map
      (fun (lo, hi, enters, exits, flushed) ->
        [
          Printf.sprintf "[0x%x,0x%x)" lo hi;
          string_of_int enters;
          string_of_int exits;
          string_of_int flushed;
        ])
      (regions t)
  in
  if rows = [] then "(no WARD regions recorded)\n"
  else
    Table.render
      ~header:[ "region"; "enters"; "exits"; "flushed blocks" ]
      ~rows
