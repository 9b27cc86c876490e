open Warden_cache
open Warden_proto
open Warden_machine

(* The L2's way payloads are slots of the core's line pool, which holds
   each line's bytes, dirty mask and coherence state (as [pstate_code]).
   The L1 is tags only. *)
type t = {
  l1 : Sa.t;
  l2 : Sa.t;
  pool : Linepool.t;
  mutable last_l1 : bool; (* level of the last fast_hit: true = L1 *)
  evict : blk:int -> States.pstate -> Linedata.t -> unit;
}

let create (cfg : Config.t) ~evict =
  {
    l1 =
      Sa.create ~sets:(Config.l1_sets cfg) ~ways:cfg.Config.l1_ways
        ~payloads:false;
    l2 =
      Sa.create ~sets:(Config.l2_sets cfg) ~ways:cfg.Config.l2_ways
        ~payloads:true;
    pool =
      Linepool.create ~capacity:(Config.l2_sets cfg * cfg.Config.l2_ways) ();
    last_l1 = false;
    evict;
  }

let s_code = 0
let e_code = 1
let m_code = 2

let pstate_code = function
  | States.P_S -> s_code
  | States.P_E -> e_code
  | States.P_M -> m_code

let pstate_of_code c =
  if c = s_code then States.P_S
  else if c = e_code then States.P_E
  else States.P_M

let state t slot = pstate_of_code (Linepool.state t.pool slot)
let set_state t slot st = Linepool.set_state t.pool slot (pstate_code st)
let data t slot = Linepool.view t.pool slot
let[@inline] load t slot ~off ~size = Linepool.load t.pool slot ~off ~size

let[@inline] write t slot ~off ~size v =
  let c = Linepool.state t.pool slot in
  if c = e_code then Linepool.set_state t.pool slot m_code (* silent E->M *)
  else assert (c = m_code);
  Linepool.store t.pool slot ~off ~size v

(* The slow half of an access, after [fast_hit] failed: a resident line
   is an S copy that a write must upgrade, refreshed and promoted into
   L1 as a hit would be. *)
let lookup t ~blk =
  let in_l1 = Sa.touch t.l1 blk in
  let w2 = Sa.find_way t.l2 blk in
  if not (Sa.hit w2) then begin
    (* Inclusion: nothing in L1 without L2. *)
    assert (not in_l1);
    -1
  end
  else begin
    let slot = Sa.value t.l2 w2 in
    assert (Linepool.state t.pool slot = s_code);
    if not in_l1 then
      (* Promote into L1; the displaced L1 line stays valid in L2. *)
      Sa.insert_absent t.l1 blk 0;
    slot
  end

(* The fast half of an access: succeed only when the access is a plain
   permission-sufficient hit, committing the LRU refresh in both levels
   and the L1 promotion. On an upgrade or miss, return -1 having mutated
   nothing — the caller falls back to [lookup], which then performs
   those mutations at the same point of the run. *)
let[@inline] fast_hit t ~blk ~write =
  let w2 = Sa.peek_way t.l2 blk in
  if not (Sa.hit w2) then -1
  else
    let slot = Sa.value t.l2 w2 in
    if write && Linepool.state t.pool slot = s_code then -1
    else begin
      let in_l1 = Sa.touch t.l1 blk in
      (* Rotate the hit to the MRU-first way, exactly as the slow path's
         [Sa.find_way] does: a re-probe of the hot block then exits on the
         first comparison. Way position carries no simulated meaning
         (recency lives in [last_use], victim choice reads only that), so
         this changes no observable behavior. *)
      ignore (Sa.promote_way t.l2 blk w2 : Sa.way);
      if not in_l1 then Sa.insert_absent t.l1 blk 0;
      t.last_l1 <- in_l1;
      slot
    end

let[@inline] last_l1 t = t.last_l1

(* A line that has left the L2 — a capacity victim or an explicit
   eviction — leaves the L1 and goes to the protocol's writeback path.
   Its slot is freed only after the protocol has taken its data. *)
let retire t ~blk slot =
  Sa.remove t.l1 blk;
  t.evict ~blk (state t slot) (data t slot);
  Linepool.free t.pool slot

(* The grant's bytes are copied into a fresh slot before the insert that
   may evict: the source view may point into a pool that the eviction's
   writeback fills. *)
let fill t ~blk pstate src =
  let slot = Linepool.alloc t.pool in
  Linepool.fill t.pool slot src;
  set_state t slot pstate;
  (match Sa.insert t.l2 blk slot with
  | None -> ()
  | Some (vblk, vslot) -> retire t ~blk:vblk vslot);
  Sa.insert_absent t.l1 blk 0;
  slot

let evict t ~blk =
  let w = Sa.peek_way t.l2 blk in
  Sa.hit w
  && begin
       let slot = Sa.value t.l2 w in
       Sa.remove t.l2 blk;
       retire t ~blk slot;
       true
     end

let copy t ~evict =
  {
    t with
    l1 = Sa.copy t.l1;
    l2 = Sa.copy t.l2;
    pool = Linepool.copy t.pool;
    evict;
  }

let iter_resident t f = Sa.iter t.l2 f

let check_inclusion t =
  let bad = ref None in
  Sa.iter t.l1 (fun blk _ ->
      if (not (Sa.mem t.l2 blk)) && !bad = None then
        bad := Some (Printf.sprintf "block %d in L1 but not in L2" blk));
  match !bad with None -> Ok () | Some m -> Error m

(* --- snapshot (DESIGN.md §15) -------------------------------------------- *)

let save t w =
  let module B = Warden_util.Bin in
  Sa.save t.l1 w ~elt:(fun _ _ -> ());
  Sa.save t.l2 w ~elt:(fun w slot ->
      B.w_u8 w (Linepool.state t.pool slot);
      Linedata.save (data t slot) w);
  B.w_bool w t.last_l1

let restore t r =
  let module B = Warden_util.Bin in
  Sa.restore t.l1 r ~elt:(fun _ -> -1);
  Linepool.reset t.pool;
  Sa.restore t.l2 r ~elt:(fun r ->
      let code = B.r_u8 r in
      if code > m_code then B.corrupt "Privcache: bad line state";
      let slot = Linepool.alloc t.pool in
      Linepool.set_state t.pool slot code;
      Linedata.restore (data t slot) r;
      slot);
  t.last_l1 <- B.r_bool r

let probe_of t blk slot =
  let levels = if Sa.mem t.l1 blk then 2 else 1 in
  { Fabric.levels; state = state t slot; data = data t slot }

let peek t ~blk =
  let w = Sa.find_way t.l2 blk in
  if not (Sa.hit w) then None else Some (probe_of t blk (Sa.value t.l2 w))

(* The freed slot's bytes and mask survive until the pool's next fill,
   so the returned probe's line stays readable for the protocol. *)
let invalidate t ~blk =
  let w = Sa.find_way t.l2 blk in
  if not (Sa.hit w) then None
  else begin
    let slot = Sa.value t.l2 w in
    let p = probe_of t blk slot in
    Sa.remove t.l1 blk;
    Sa.remove t.l2 blk;
    Linepool.free t.pool slot;
    Some p
  end

let downgrade t ~blk =
  let w = Sa.find_way t.l2 blk in
  if not (Sa.hit w) then None
  else begin
    let slot = Sa.value t.l2 w in
    let p = probe_of t blk slot in
    Linepool.set_state t.pool slot s_code;
    Some p
  end
