open Warden_runtime
module Regions = Warden_core.Regions

type report = {
  accesses : int;
  ward_accesses : int;
  reads : int;
  writes : int;
  rmws : int;
  distinct_blocks : int;
  shared_blocks : int;
  ward_verdict : [ `Ward | `Violations of int ];
  disentanglement_violations : string list;
  ward_violations : string list;
}

let ward_fraction r =
  if r.accesses = 0 then 0.
  else float_of_int r.ward_accesses /. float_of_int r.accesses

let max_reported = 16

type cell = { mutable tid : int; mutable value : int64; mutable size : int }

(* One marked region's accesses, newest first, for the offline verdict. *)
type epoch = { mutable evs : Wardprop.event list }

type state = {
  mutable accesses : int;
  mutable ward_accesses : int;
  mutable reads : int;
  mutable writes : int;
  mutable rmws : int;
  block_threads : (int, int) Hashtbl.t;
      (* block -> thread id, or -2 once touched by several threads *)
  epochs : (int, epoch) Hashtbl.t; (* 4 KiB chunk -> live region epoch *)
  mutable epoch_violations : int;
  mutable dis_violations : string list;
  mutable dis_count : int;
  mutable ward_violations : string list;
  mutable ward_count : int;
  regions : Regions.t;
  cells : (int, (int, cell) Hashtbl.t) Hashtbl.t;
      (** last write per exact address while marked, sharded by 4 KiB chunk
          so that region removal can drop a whole shard *)
}

let chunk_of addr = addr lsr 12

let find_cell st addr =
  match Hashtbl.find_opt st.cells (chunk_of addr) with
  | None -> None
  | Some shard -> Hashtbl.find_opt shard addr

let put_cell st addr cell =
  let shard =
    match Hashtbl.find_opt st.cells (chunk_of addr) with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 64 in
        Hashtbl.add st.cells (chunk_of addr) s;
        s
  in
  Hashtbl.replace shard addr cell

let add_dis st msg =
  st.dis_count <- st.dis_count + 1;
  if List.length st.dis_violations < max_reported then
    st.dis_violations <- msg :: st.dis_violations

let add_ward st msg =
  st.ward_count <- st.ward_count + 1;
  if List.length st.ward_violations < max_reported then
    st.ward_violations <- msg :: st.ward_violations

let on_access st kind ~addr ~size ~value =
  st.accesses <- st.accesses + 1;
  let tid = Warden_sim.Engine.Ops.tid () in
  (match kind with
  | Par.R -> st.reads <- st.reads + 1
  | Par.W -> st.writes <- st.writes + 1
  | Par.RMW -> st.rmws <- st.rmws + 1);
  (match Hashtbl.find_opt st.epochs (chunk_of addr) with
  | Some e ->
      e.evs <- { Wardprop.thread = tid; write = kind <> Par.R; addr; value } :: e.evs
  | None -> ());
  let blk = Warden_mem.Addr.block_of addr in
  (match Hashtbl.find_opt st.block_threads blk with
  | None -> Hashtbl.add st.block_threads blk tid
  | Some t when t = tid || t = -2 -> ()
  | Some _ -> Hashtbl.replace st.block_threads blk (-2));
  (* Disentanglement: the owner heap must lie on the current root path. *)
  (match (Heap.owner_of addr, Par.current_heap ()) with
  | Some owner, Some mine ->
      if not (Heap.is_ancestor_or_self owner ~of_:mine) then
        add_dis st
          (Printf.sprintf "access to 0x%x: owner heap %d not on root path of %d"
             addr owner.Heap.heap_id mine.Heap.heap_id)
  | _ -> ());
  (* WARD: race discipline inside marked pages. *)
  if Regions.mem st.regions addr then begin
    st.ward_accesses <- st.ward_accesses + 1;
    match kind with
    | Par.RMW ->
        add_ward st
          (Printf.sprintf "atomic at 0x%x inside a WARD region (thread %d)" addr
             tid)
    | Par.W -> (
        match find_cell st addr with
        | None -> put_cell st addr { tid; value; size }
        | Some c ->
            if c.tid <> tid && (c.value <> value || c.size <> size) then
              add_ward st
                (Printf.sprintf
                   "ordered WAW at 0x%x: thread %d wrote %Ld, thread %d wrote %Ld"
                   addr c.tid c.value tid value);
            c.tid <- tid;
            c.value <- value;
            c.size <- size)
    | Par.R -> (
        match find_cell st addr with
        | None -> ()
        | Some c ->
            if c.tid <> tid then
              add_ward st
                (Printf.sprintf
                   "cross-thread RAW at 0x%x: thread %d wrote, thread %d read"
                   addr c.tid tid))
  end

let classify_epoch st e =
  if Wardprop.classify (List.rev e.evs) <> Wardprop.Ward then
    st.epoch_violations <- st.epoch_violations + 1

let iter_chunks ~lo ~hi f =
  let c = ref (chunk_of lo) in
  while !c lsl 12 < hi do
    f !c;
    incr c
  done

let on_region st which ~lo ~hi =
  match which with
  | `Add ->
      ignore (Regions.add st.regions ~lo ~hi);
      let e = { evs = [] } in
      iter_chunks ~lo ~hi (fun c -> Hashtbl.replace st.epochs c e)
  | `Remove ->
      ignore (Regions.remove st.regions ~lo ~hi);
      Option.iter (classify_epoch st) (Hashtbl.find_opt st.epochs (chunk_of lo));
      (* Drop the region's write-tracking state and epoch. *)
      iter_chunks ~lo ~hi (fun c ->
          Hashtbl.remove st.cells c;
          Hashtbl.remove st.epochs c)

let with_oracle f =
  let st =
    {
      accesses = 0;
      ward_accesses = 0;
      reads = 0;
      writes = 0;
      rmws = 0;
      block_threads = Hashtbl.create 4096;
      epochs = Hashtbl.create 256;
      epoch_violations = 0;
      dis_violations = [];
      dis_count = 0;
      ward_violations = [];
      ward_count = 0;
      regions = Regions.create ~capacity:max_int;
      cells = Hashtbl.create 4096;
    }
  in
  Par.set_access_hook (fun kind ~addr ~size ~value ->
      on_access st kind ~addr ~size ~value);
  Heap.set_region_hook (Some (fun which ~lo ~hi -> on_region st which ~lo ~hi));
  let finish () =
    Par.clear_access_hook ();
    Heap.set_region_hook None
  in
  let v = Fun.protect ~finally:finish f in
  (* Classify the epochs still live at the end (e.g., the root heap's),
     each once although it spans several chunks. *)
  Hashtbl.fold
    (fun _ e live -> if List.memq e live then live else e :: live)
    st.epochs []
  |> List.iter (classify_epoch st);
  ( v,
    {
      accesses = st.accesses;
      ward_accesses = st.ward_accesses;
      reads = st.reads;
      writes = st.writes;
      rmws = st.rmws;
      distinct_blocks = Hashtbl.length st.block_threads;
      shared_blocks =
        Hashtbl.fold
          (fun _ t n -> if t = -2 then n + 1 else n)
          st.block_threads 0;
      ward_verdict =
        (if st.epoch_violations = 0 then `Ward
         else `Violations st.epoch_violations);
      disentanglement_violations = List.rev st.dis_violations;
      ward_violations = List.rev st.ward_violations;
    } )

let check_clean r =
  match (r.disentanglement_violations, r.ward_violations) with
  | [], [] -> Ok ()
  | d, w ->
      Error
        (String.concat "\n"
           (List.map (fun m -> "disentanglement: " ^ m) d
           @ List.map (fun m -> "ward: " ^ m) w))

let pp_profile fmt (r : report) =
  Format.fprintf fmt
    "@[<v>accesses: %d (%d reads, %d writes, %d atomics)@,\
     WARD coverage: %.1f%% of accesses in marked regions@,\
     footprint: %d blocks touched, %d shared across threads@,\
     offline WARD classification: %s@]"
    r.accesses r.reads r.writes r.rmws
    (100. *. ward_fraction r)
    r.distinct_blocks r.shared_blocks
    (match r.ward_verdict with
    | `Ward -> "every marked region was WARD"
    | `Violations n -> Printf.sprintf "%d region epochs violated WARD" n)
