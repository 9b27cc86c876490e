open Warden_cache
open Warden_machine
open Warden_mem

(* Slices are tag stores sized by the lines they hold (Csa): identical
   simulated behavior to flat Sa arrays, but storage grows with the
   resident lines. At the many-socket scaling topologies an eager LLC is
   by far the largest simulator structure (~20M ways at 512 cores), and
   a run fills a few percent of it. Each slice's lines live by slot in
   its own pool, whose pages are likewise added on demand. *)
type slice = { tags : Csa.t; pool : Linepool.t }
type t = { slices : slice array; store : Store.t }

let create (cfg : Config.t) store =
  {
    slices =
      Array.init cfg.Config.sockets (fun _ ->
          {
            tags =
              Csa.create ~sets:(Config.l3_sets_per_socket cfg)
                ~ways:cfg.Config.l3_ways;
            pool =
              Linepool.create
                ~capacity:(Config.l3_sets_per_socket cfg * cfg.Config.l3_ways)
                ();
          });
    store;
  }

let store t = t.store

(* Make [slot] resident as [blk]. A displaced slot is freed — after a
   dirty writeback if it held another block; a slot replaced under the
   same block (a full-line overwrite) is dropped unwritten. *)
let insert t s ~blk slot =
  match Csa.insert s.tags blk slot with
  | None -> ()
  | Some (vblk, vslot) ->
      if vblk <> blk && Linepool.is_dirty s.pool vslot then
        Linedata.write_back (Linepool.view s.pool vslot) t.store vblk;
      Linepool.free s.pool vslot

(* The resident slot of [blk], filled from memory on a miss. *)
let get_or_fetch t s ~blk =
  let slot = Csa.find s.tags blk in
  if slot >= 0 then (slot, `L3)
  else begin
    let slot = Linepool.alloc s.pool in
    let where =
      if Store.materialized t.store blk then begin
        Linepool.fill_block s.pool slot t.store blk;
        `Dram
      end
      else begin
        (* Never-written memory is known zero: synthesize the line at the
           LLC without touching DRAM (zero-fill, as an OS does for fresh
           pages). *)
        Linepool.fill_zero s.pool slot;
        `Zero
      end
    in
    insert t s ~blk slot;
    (slot, where)
  end

let read t ~socket ~blk =
  let s = t.slices.(socket) in
  let slot, where = get_or_fetch t s ~blk in
  (Linepool.view s.pool slot, where)

let peek t ~socket ~blk =
  let s = t.slices.(socket) in
  let slot = Csa.peek s.tags blk in
  if slot < 0 then None else Some (Linepool.view s.pool slot)

let merge t ~socket ~blk src =
  let s = t.slices.(socket) in
  let slot, _ = get_or_fetch t s ~blk in
  Linedata.merge_masked ~dst:(Linepool.view s.pool slot) ~src

let put_full t ~socket ~blk src =
  let s = t.slices.(socket) in
  let slot = Linepool.alloc s.pool in
  Linepool.fill s.pool slot src;
  Linepool.mark_all_dirty s.pool slot;
  insert t s ~blk slot

let copy t store =
  {
    slices =
      Array.map
        (fun s -> { tags = Csa.copy s.tags; pool = Linepool.copy s.pool })
        t.slices;
    store;
  }

let flush_to_store t =
  Array.iter
    (fun s ->
      Csa.iter s.tags (fun blk slot ->
          if Linepool.is_dirty s.pool slot then begin
            let line = Linepool.view s.pool slot in
            Linedata.write_back line t.store blk;
            Linedata.clear_dirty line
          end))
    t.slices

let save t w =
  Warden_util.Bin.w_int w (Array.length t.slices);
  Array.iter
    (fun s ->
      Csa.save s.tags w ~elt:(fun w slot ->
          Linedata.save (Linepool.view s.pool slot) w))
    t.slices

let restore t r =
  let n = Warden_util.Bin.r_int r in
  if n <> Array.length t.slices then
    Warden_util.Bin.corrupt "Llc: socket count mismatch";
  Array.iter
    (fun s ->
      Linepool.reset s.pool;
      Csa.restore s.tags r ~elt:(fun r ->
          let slot = Linepool.alloc s.pool in
          Linedata.restore (Linepool.view s.pool slot) r;
          slot))
    t.slices

(* Host-side footprint of the lazy slices, for the scale bench report. *)
let chunks_stats t =
  Array.fold_left
    (fun (alloc, total) s ->
      (alloc + Csa.chunks_allocated s.tags, total + Csa.chunks_total s.tags))
    (0, 0) t.slices
