open Warden_cache
open Warden_machine
open Warden_mem

(* Slices are chunked set-associative arrays (Csa): identical simulated
   behavior to the flat Sa arrays, but chunk storage materializes on
   first insert. At the many-socket scaling topologies the LLC is by far
   the largest simulator structure (~20M ways at 512 cores); eager
   allocation dominated engine construction and spread probes over
   hundreds of megabytes of cold host memory. *)
type t = { slices : Linedata.t Csa.t array; store : Store.t }

let create (cfg : Config.t) store =
  {
    slices =
      Array.init cfg.Config.sockets (fun _ ->
          Csa.create ~sets:(Config.l3_sets_per_socket cfg)
            ~ways:cfg.Config.l3_ways ~dummy:(Linedata.create ()));
    store;
  }

let store t = t.store

let writeback t blk (line : Linedata.t) =
  if Linedata.is_dirty line then
    Store.write_block_masked t.store blk (Linedata.bytes line)
      ~mask:(Linedata.dirty_mask line)

let insert t ~socket ~blk line =
  match Csa.insert t.slices.(socket) blk line with
  | None -> ()
  | Some (vblk, vline) -> writeback t vblk vline

let get_or_fetch t ~socket ~blk =
  match Csa.find t.slices.(socket) blk with
  | Some line -> (line, `L3)
  | None ->
      if Store.materialized t.store blk then begin
        let line = Linedata.of_bytes (Store.read_block t.store blk) in
        insert t ~socket ~blk line;
        (line, `Dram)
      end
      else begin
        (* Never-written memory is known zero: synthesize the line at the
           LLC without touching DRAM (zero-fill, as an OS does for fresh
           pages). *)
        let line = Linedata.create () in
        insert t ~socket ~blk line;
        (line, `Zero)
      end

let read t ~socket ~blk =
  let line, where = get_or_fetch t ~socket ~blk in
  (Linedata.bytes line, where)

let merge t ~socket ~blk src =
  let line, _ = get_or_fetch t ~socket ~blk in
  Linedata.merge_masked ~dst:line ~src

let put_full t ~socket ~blk bytes =
  let line = Linedata.of_bytes (Bytes.copy bytes) in
  Linedata.mark_all_dirty line;
  insert t ~socket ~blk line

let flush_to_store t =
  Array.iter
    (fun slice ->
      Csa.iter slice (fun blk line ->
          writeback t blk line;
          Linedata.clear_dirty line))
    t.slices

let save t w =
  Warden_util.Bin.w_int w (Array.length t.slices);
  Array.iter
    (fun slice -> Csa.save slice w ~elt:(fun w ld -> Linedata.save ld w))
    t.slices

let restore t r =
  let n = Warden_util.Bin.r_int r in
  if n <> Array.length t.slices then
    Warden_util.Bin.corrupt "Llc: socket count mismatch";
  Array.iter (fun slice -> Csa.restore slice r ~elt:Linedata.load_snap) t.slices

(* Host-side footprint of the lazy slices, for the scale bench report. *)
let chunks_stats t =
  Array.fold_left
    (fun (alloc, total) slice ->
      (alloc + Csa.chunks_allocated slice, total + Csa.chunks_total slice))
    (0, 0) t.slices
