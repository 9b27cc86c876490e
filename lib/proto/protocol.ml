type block_view = {
  bv_state : States.dstate;
  bv_owner : int;
  bv_sharers : int list;
  bv_wmulti : bool;
}

let invalid_view =
  { bv_state = States.D_I; bv_owner = -1; bv_sharers = []; bv_wmulti = false }

let view_of_dir dir ~blk =
  let s = Dirstate.find dir blk in
  if s = Dirstate.no_slot then invalid_view
  else
    {
      bv_state = Dirstate.state dir s;
      bv_owner = Dirstate.owner dir s;
      bv_sharers = Dirstate.sharers dir s;
      bv_wmulti = Dirstate.w_multi dir s;
    }

let pp_block_view fmt v =
  Format.fprintf fmt "%a owner=%d sharers=[%s]%s" States.pp_dstate v.bv_state
    v.bv_owner
    (String.concat "," (List.map string_of_int v.bv_sharers))
    (if v.bv_wmulti then " multi" else "")

let dump_dir dir =
  let rows = ref [] in
  Dirstate.iter dir (fun blk s ->
      if Dirstate.state dir s <> States.D_I then
        rows := (blk, view_of_dir dir ~blk) :: !rows);
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) !rows in
  String.concat ""
    (List.map
       (fun (blk, v) -> Format.asprintf "  blk %d: %a@." blk pp_block_view v)
       rows)

module type S = sig
  type t

  val name : string

  val kind : [ `Directory | `Snoop | `Self ]
  (** Coherence topology: [`Directory] protocols answer requests from
      per-block bookkeeping, [`Snoop] protocols broadcast on a shared bus
      and discover copies by probing, [`Self] protocols never initiate
      remote invalidations — the cores self-invalidate at acquires and
      self-downgrade at releases. The simulator and model checker key
      behavior off this: only [`Self] protocols receive {!acquire} and
      {!release}, and their atomics take the coherent scheduled path. *)

  val create : Fabric.t -> t
  val fabric : t -> Fabric.t

  val handle_request :
    t -> core:int -> blk:int -> write:bool -> holds_s:bool -> Mesi.grant

  val handle_evict :
    t ->
    core:int ->
    blk:int ->
    pstate:States.pstate ->
    data:Warden_cache.Linedata.t ->
    unit

  val region_add : t -> lo:int -> hi:int -> bool
  val is_ward : t -> blk:int -> bool
  val region_remove : t -> lo:int -> hi:int -> int

  val acquire : t -> core:int -> int
  (** Acquire fence on [core]: a [`Self] protocol flushes the core's dirty
      copies and drops everything it holds, returning the cycles charged.
      Free no-op (0) for protocols whose coherence is eager. *)

  val release : t -> core:int -> int
  (** Release fence on [core]: a [`Self] protocol self-downgrades the
      core's dirty copies into the LLC. Free no-op (0) otherwise. *)

  val flush_all : t -> unit
  val observe : t -> blk:int -> block_view

  val dump : t -> string
  val copy : t -> fabric:Fabric.t -> t
  val save_state : t -> Warden_util.Bin.w -> unit
  val restore_state : t -> Warden_util.Bin.r -> unit
end

type t = Packed : (module S with type t = 'a) * 'a -> t

let name (Packed ((module P), _)) = P.name
let kind (Packed ((module P), _)) = P.kind
let fabric (Packed ((module P), p)) = P.fabric p
let stats t = (fabric t).Fabric.stats

let handle_request (Packed ((module P), p)) ~core ~blk ~write ~holds_s =
  P.handle_request p ~core ~blk ~write ~holds_s

let handle_evict (Packed ((module P), p)) ~core ~blk ~pstate ~data =
  P.handle_evict p ~core ~blk ~pstate ~data

let region_add (Packed ((module P), p)) ~lo ~hi = P.region_add p ~lo ~hi
let region_remove (Packed ((module P), p)) ~lo ~hi = P.region_remove p ~lo ~hi
let is_ward (Packed ((module P), p)) ~blk = P.is_ward p ~blk
let acquire (Packed ((module P), p)) ~core = P.acquire p ~core
let release (Packed ((module P), p)) ~core = P.release p ~core
let flush_all (Packed ((module P), p)) = P.flush_all p
let observe (Packed ((module P), p)) ~blk = P.observe p ~blk
let dump (Packed ((module P), p)) = P.dump p
let copy (Packed ((module P), p)) ~fabric = Packed ((module P), P.copy p ~fabric)
let save_state (Packed ((module P), p)) w = P.save_state p w
let restore_state (Packed ((module P), p)) r = P.restore_state p r

module Mesi_protocol = struct
  type t = { fabric : Fabric.t; dir : Dirstate.t; scratch : Mesi.grant }

  let name = "mesi"
  let kind = `Directory

  let create fabric =
    {
      fabric;
      dir = Dirstate.of_config fabric.Fabric.config;
      scratch = Mesi.fresh_grant ();
    }

  let fabric t = t.fabric

  let handle_request t ~core ~blk ~write ~holds_s =
    Mesi.handle_request t.fabric t.dir t.scratch ~core ~blk ~write ~holds_s

  let handle_evict t ~core ~blk ~pstate ~data =
    Mesi.handle_evict t.fabric t.dir ~core ~blk ~pstate ~data

  (* The region instructions exist in the ISA either way; on a machine
     without WARDen support they retire with no architectural effect (the
     attempt is still counted, so runs are comparable). *)
  let region_add t ~lo:_ ~hi:_ =
    t.fabric.Fabric.stats.Pstats.ward_adds <-
      t.fabric.Fabric.stats.Pstats.ward_adds + 1;
    t.fabric.Fabric.stats.Pstats.ward_rejects <-
      t.fabric.Fabric.stats.Pstats.ward_rejects + 1;
    false

  let is_ward _ ~blk:_ = false

  let region_remove t ~lo:_ ~hi:_ =
    t.fabric.Fabric.stats.Pstats.ward_removes <-
      t.fabric.Fabric.stats.Pstats.ward_removes + 1;
    0

  (* Eager coherence: acquire/release fences have no architectural effect
     (the directory already invalidates and downgrades remotely). *)
  let acquire _ ~core:_ = 0
  let release _ ~core:_ = 0

  let flush_all t =
    Dirstate.iter t.dir (fun _ e -> Mesi.flush_entry t.fabric t.dir e)

  let observe t ~blk = view_of_dir t.dir ~blk
  let dump t = "protocol mesi\n" ^ dump_dir t.dir
  let copy t ~fabric =
    { fabric; dir = Dirstate.copy t.dir; scratch = Mesi.fresh_grant () }

  (* MESI's whole protocol state is the directory; the fabric's caches and
     stats are serialized by their owners. *)
  let save_state t w = Dirstate.save t.dir w
  let restore_state t r = Dirstate.restore t.dir r
end

let mesi fabric = Packed ((module Mesi_protocol), Mesi_protocol.create fabric)
