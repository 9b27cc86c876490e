open Warden_mem
open Warden_cache
open Warden_machine
open Warden_proto
open Warden_sim

type cfg = {
  cores : int;
  blks : int;
  regions : int;
  store_cap : int;
  region_base : int;
  machine : Config.t;
  mk : Fabric.t -> Protocol.t;
}

type t = {
  cfg : cfg;
  ms : Memsys.t;
  counts : int array array; (* [core].(blk): committed stores *)
  active : int array; (* per region index: live activations, at most 1 *)
  (* Fence monitor for [`Self] protocols: [synced.(c)] — every write core
     [c] has committed is published in the LLC and none of its lines are
     dirty (set by acquire/release, cleared by a store); [fresh.(c)] — the
     core holds no lines at all (set by acquire, cleared by any access).
     Untouched (and excluded from [key]) for other protocol kinds. *)
  synced : bool array;
  fresh : bool array;
}

type result = { latency : int; value : int64 option; accepted : bool }

let proto t = Memsys.protocol t.ms

(* Interleaving-independent store values: the k-th store by a core to a
   block writes the same value on every path that reaches the same
   per-(core, block) store counts, so canonical states converge across
   reorderings. The encoding is also decodable, which gives the W-block
   containment check its "no out-of-thin-air values" test. *)
let encode ~core ~blk k =
  if k = 0 then 0L
  else Int64.of_int (((((core + 1) * 256) + blk) * 65536) + k)

let decode v =
  if Int64.compare v 0L < 0 || Int64.compare v 0x7FFFFFFFFFFFL > 0 then None
  else
    let v = Int64.to_int v in
    let k = v land 0xFFFF in
    let rest = v lsr 16 in
    let blk = rest land 0xFF in
    let core = (rest lsr 8) - 1 in
    if core < 0 || k = 0 then None else Some (core, blk, k)

let slot_off core = core * 8

(* One set per cache level, with a way for every checked block: no line
   is ever a capacity victim, so LRU order cannot affect the future and
   [key] need not record it. The topology — sockets, cores, hops and
   latencies — is the machine's own. *)
let shrink (m : Config.t) ~blks =
  let one_set = blks * Addr.block_size in
  {
    m with
    l1_bytes = one_set;
    l1_ways = blks;
    l2_bytes = one_set;
    l2_ways = blks;
    l3_bytes_per_core = one_set / m.Config.cores_per_socket;
    l3_ways = blks;
  }

let create cfg =
  if cfg.cores < 1 || cfg.cores > 8 then
    invalid_arg "World.create: cores must be in 1..8";
  if cfg.blks < 1 || cfg.blks > 256 then
    invalid_arg "World.create: blks must be in 1..256";
  {
    cfg;
    ms = Memsys.create_with (shrink cfg.machine ~blks:cfg.blks) ~mk:cfg.mk;
    counts = Array.make_matrix cfg.cores cfg.blks 0;
    active = Array.make (max 1 cfg.regions) 0;
    synced = Array.make cfg.cores true;
    fresh = Array.make cfg.cores true;
  }

let copy t =
  {
    t with
    ms = Memsys.copy t.ms;
    counts = Array.map Array.copy t.counts;
    active = Array.copy t.active;
    synced = Array.copy t.synced;
    fresh = Array.copy t.fresh;
  }

(* ---- reading the memory system ------------------------------------------ *)

let line t ~core ~blk =
  (Protocol.fabric (proto t)).Fabric.peek_priv ~core ~blk

let resident t ~core =
  let blks = ref [] in
  (Protocol.fabric (proto t)).Fabric.iter_priv ~core (fun blk ->
      blks := blk :: !blks);
  List.sort compare !blks

let llc_line t ~blk =
  Llc.peek (Memsys.llc t.ms)
    ~socket:(Config.home_socket t.cfg.machine blk)
    ~blk

(* The value a fresh miss would observe for one slot: the LLC line if
   resident, else memory (never-written memory is known zero). *)
let effective_slot t ~blk ~slot =
  match llc_line t ~blk with
  | Some l -> Linedata.load l ~off:(slot_off slot) ~size:8
  | None ->
      let store = Llc.store (Memsys.llc t.ms) in
      if Store.materialized store blk then
        Store.load store (Addr.base_of_block blk + slot_off slot) ~size:8
      else 0L

(* ---- operations ---------------------------------------------------------- *)

let region_range t r =
  let lo_b, hi_b = Op.region_blocks ~blks:t.cfg.blks r in
  ( Addr.base_of_block (t.cfg.region_base + lo_b),
    Addr.base_of_block (t.cfg.region_base + hi_b) )

let is_self t = Protocol.kind (proto t) = `Self

let enabled t =
  let base = Op.all ~cores:t.cfg.cores ~blks:t.cfg.blks ~regions:t.cfg.regions in
  let alphabet =
    if is_self t then base @ Op.sync ~cores:t.cfg.cores else base
  in
  List.filter
    (fun op ->
      match op with
      | Op.Load { core; blk } -> line t ~core ~blk = None
      | Op.Store { core; blk } ->
          t.cfg.store_cap <= 0 || t.counts.(core).(blk) < t.cfg.store_cap
      | Op.Evict { core; blk } -> line t ~core ~blk <> None
      | Op.Region_add r -> t.active.(r) = 0
      | Op.Region_remove r -> t.active.(r) > 0
      (* Fences are idempotent; only explore ones that can change state. *)
      | Op.Acquire c -> not t.fresh.(c)
      | Op.Release c -> not t.synced.(c))
    alphabet

(* Core [c] accesses through its first hardware thread, to its own
   8-byte slot. *)
let thread t core = core * t.cfg.machine.Config.threads_per_core
let addr ~core ~blk = Addr.base_of_block blk + slot_off core

let apply t op =
  let self = is_self t in
  match op with
  | Op.Load { core; blk } ->
      if self then t.fresh.(core) <- false;
      let into = Bytes.create 8 in
      let latency =
        Memsys.access_load t.ms ~thread:(thread t core) (addr ~core ~blk)
          ~size:8 into
      in
      { latency; value = Some (Bytes.get_int64_le into 0); accepted = true }
  | Op.Store { core; blk } ->
      if self then begin
        t.fresh.(core) <- false;
        t.synced.(core) <- false
      end;
      t.counts.(core).(blk) <- t.counts.(core).(blk) + 1;
      let v = encode ~core ~blk t.counts.(core).(blk) in
      let latency =
        Memsys.access_store t.ms ~thread:(thread t core) (addr ~core ~blk)
          ~size:8 v
      in
      { latency; value = Some v; accepted = true }
  | Op.Evict { core; blk } ->
      let accepted = Memsys.evict t.ms ~thread:(thread t core) ~blk in
      { latency = 0; value = None; accepted }
  | Op.Region_add r ->
      let lo, hi = region_range t r in
      let ok = Memsys.region_add t.ms ~thread:0 ~lo ~hi in
      if ok then t.active.(r) <- t.active.(r) + 1;
      { latency = 0; value = None; accepted = ok }
  | Op.Region_remove r ->
      let lo, hi = region_range t r in
      let latency = Memsys.region_remove t.ms ~thread:0 ~lo ~hi in
      if t.active.(r) > 0 then t.active.(r) <- t.active.(r) - 1;
      { latency; value = None; accepted = true }
  | Op.Acquire core ->
      let latency = Memsys.acquire t.ms ~thread:(thread t core) in
      if self then begin
        t.fresh.(core) <- true;
        t.synced.(core) <- true
      end;
      { latency; value = None; accepted = true }
  | Op.Release core ->
      let latency = Memsys.release t.ms ~thread:(thread t core) in
      if self then t.synced.(core) <- true;
      { latency; value = None; accepted = true }

(* ---- invariants ---------------------------------------------------------- *)

(* The model cores' copies of [blk], ascending. *)
let copies t blk =
  List.filter_map
    (fun core -> Option.map (fun pr -> (core, pr)) (line t ~core ~blk))
    (List.init t.cfg.cores Fun.id)

let oracle t ~blk ~slot = encode ~core:slot ~blk t.counts.(slot).(blk)

(* May value [v] legitimately sit in slot [slot] of block [blk]? Inside a
   WARD region, a stale copy may lag, but any value it shows must be a
   historical oracle value of that very slot. *)
let in_history t ~blk ~slot v =
  Int64.equal v 0L
  ||
  match decode v with
  | Some (core, b, k) -> core = slot && b = blk && k <= t.counts.(slot).(blk)
  | None -> false

let pstate_name p = Format.asprintf "%a" States.pp_pstate p
let show_cores cs = String.concat "," (List.map string_of_int cs)

let check t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let self = is_self t in
  let p = proto t in
  for blk = 0 to t.cfg.blks - 1 do
    let v = Protocol.observe p ~blk in
    let ward = Protocol.is_ward p ~blk in
    let cs = copies t blk in
    let hs = List.map fst cs in
    let st = v.Protocol.bv_state and owner = v.Protocol.bv_owner in
    let d = Format.asprintf "%a" States.pp_dstate st in
    (* 1. directory / private-cache agreement. A [`Self] protocol has no
       directory — its [observe] is reconstructed from the very caches we
       would compare it against, so the check is vacuous there. *)
    if not self then begin
      let expect =
        match st with
        | States.D_I -> []
        | States.D_E | States.D_M -> [ owner ]
        | States.D_S | States.D_W -> v.Protocol.bv_sharers
      in
      if hs <> expect then
        err "blk %d: directory %s owner %d sharers [%s] but copies at [%s]" blk
          d owner
          (show_cores v.Protocol.bv_sharers)
          (show_cores hs);
      if (st = States.D_E || st = States.D_M) && v.Protocol.bv_sharers <> []
      then err "blk %d: directory %s with a sharer list" blk d;
      if st = States.D_W && not ward then
        err "blk %d: directory W outside any active WARD region" blk;
      List.iter
        (fun (c, pr) ->
          match (st, pr.Fabric.state) with
          | (States.D_E | States.D_M | States.D_W), States.P_S
          | States.D_M, States.P_E
          | States.D_S, (States.P_E | States.P_M) ->
              err "blk %d: directory %s but core %d holds %s" blk d c
                (pstate_name pr.Fabric.state)
          | _ -> ())
        cs
    end;
    if st <> States.D_W && v.Protocol.bv_wmulti then
      err "blk %d: w_multi flag survives outside the W state" blk;
    (* 2. data values against the sequential oracle. W blocks and [`Self]
       protocols share the relaxed regime: a copy must still read its own
       writes, and anything else it shows must be some historical value of
       that slot (no out-of-thin-air data). *)
    let relaxed = ward || self in
    let who = if ward then "W copy" else "SI/SD copy" in
    for slot = 0 to t.cfg.cores - 1 do
      let expect = oracle t ~blk ~slot in
      List.iter
        (fun (c, pr) ->
          let got = Linedata.load pr.Fabric.data ~off:(slot_off slot) ~size:8 in
          if (not relaxed) && not (Int64.equal got expect) then
            err
              "blk %d: stale data outside WARD: core %d sees %Ld in slot %d, \
               oracle says %Ld"
              blk c got slot expect
          else if relaxed && c = slot && not (Int64.equal got expect) then
            (* read-your-writes inside the region *)
            err
              "blk %d: %s at core %d lost its own write: slot %d has %Ld, \
               oracle says %Ld"
              blk who c slot got expect
          else if relaxed && not (in_history t ~blk ~slot got) then
            err
              "blk %d: %s at core %d holds out-of-thin-air value %Ld in slot \
               %d"
              blk who c got slot)
        cs;
      let published () = Int64.equal (effective_slot t ~blk ~slot) expect in
      if self then begin
        (* The LLC is the publication point. Whenever core [slot] holds no
           unflushed (dirty) copy of the block, everything it ever wrote
           there has been merged — the LLC slot must equal the oracle. A
           release fence makes that unconditional ([synced]): this is the
           observable that catches a dropped self-downgrade. *)
        let slot_dirty =
          match List.assoc_opt slot cs with
          | Some pr -> Linedata.is_dirty pr.Fabric.data
          | None -> false
        in
        if ((not slot_dirty) || t.synced.(slot)) && not (published ()) then
          err "blk %d: LLC lost core %d's write: slot reads %Ld, oracle says %Ld"
            blk slot (effective_slot t ~blk ~slot) expect;
        if t.synced.(slot) && slot_dirty then
          err "blk %d: core %d still dirty after its release fence" blk slot
      end
      else if
        (* With no exclusive owner, the next miss is served from the LLC:
           outside WARD regions that must already be the oracle value. *)
        (not ward)
        && (st = States.D_I || st = States.D_S)
        && not (published ())
      then
        err
          "blk %d: memory lost a write: slot %d reads %Ld from the LLC, \
           oracle says %Ld"
          blk slot (effective_slot t ~blk ~slot) expect
    done
  done;
  (* 3. fence postconditions ([`Self] only): an acquire leaves the core
     holding nothing until its next access. *)
  if self then
    for c = 0 to t.cfg.cores - 1 do
      if t.fresh.(c) && resident t ~core:c <> [] then
        err "core %d holds lines despite a fresh acquire fence" c
    done;
  (* 4. the rules the memory system audits itself: SWMR outside WARD
     regions and [`Self] protocols, clean S copies, L1 inclusion. *)
  let own =
    match Memsys.check_invariants t.ms with
    | Ok () -> []
    | Error m -> String.split_on_char '\n' m
  in
  List.rev_append !errs own

(* ---- canonical fingerprint ------------------------------------------------ *)

let add_line b l ~cores =
  Buffer.add_int64_le b (Linedata.dirty_mask l);
  for slot = 0 to cores - 1 do
    Buffer.add_int64_le b (Linedata.load l ~off:(slot_off slot) ~size:8)
  done

(* Neither cache recency nor the store is keyed: with no victim at any
   level, recency decides nothing and nothing is written back to memory. *)
let key t =
  let b = Buffer.create 512 in
  let p = proto t and cores = t.cfg.cores in
  for blk = 0 to t.cfg.blks - 1 do
    let v = Protocol.observe p ~blk in
    Buffer.add_uint8 b
      (match v.Protocol.bv_state with
      | States.D_I -> 0
      | States.D_S -> 1
      | States.D_E -> 2
      | States.D_M -> 3
      | States.D_W -> 4);
    Buffer.add_uint8 b (v.Protocol.bv_owner + 1);
    Buffer.add_uint8 b
      (List.fold_left (fun m c -> m lor (1 lsl c)) 0 v.Protocol.bv_sharers);
    Buffer.add_uint8 b
      ((if v.Protocol.bv_wmulti then 1 else 0)
      lor if Protocol.is_ward p ~blk then 2 else 0);
    for core = 0 to cores - 1 do
      match line t ~core ~blk with
      | None -> Buffer.add_uint8 b 0
      | Some pr ->
          Buffer.add_uint8 b
            (match pr.Fabric.state with
            | States.P_S -> 1
            | States.P_E -> 2
            | States.P_M -> 3);
          add_line b pr.Fabric.data ~cores
    done;
    (match llc_line t ~blk with
    | None -> Buffer.add_uint8 b 0
    | Some l ->
        Buffer.add_uint8 b 1;
        add_line b l ~cores);
    for core = 0 to cores - 1 do
      Buffer.add_uint8 b (min 255 t.counts.(core).(blk))
    done
  done;
  Array.iter (fun a -> Buffer.add_uint8 b (min 255 a)) t.active;
  (* The fence monitor is part of the [`Self] state: two worlds that
     differ only in pending-publication status have different futures. *)
  if is_self t then
    for c = 0 to cores - 1 do
      Buffer.add_uint8 b
        ((if t.synced.(c) then 1 else 0) lor if t.fresh.(c) then 2 else 0)
    done;
  Buffer.contents b

(* ---- equivalence ---------------------------------------------------------- *)

(* [data_only] relaxes the comparison for protocols that must agree on
   memory contents but are architecturally free to differ in grant
   states: snooping MSI grants S where directory MESI grants E (both
   clean, both silently upgradeable), and its directory view is a
   reconstruction. It then compares the M-vs-clean state class instead
   of the exact state, and skips directory views and wardness. *)
let compare ~data_only a b =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let blks = min a.cfg.blks b.cfg.blks in
  let cores = min a.cfg.cores b.cfg.cores in
  let pa = proto a and pb = proto b in
  let differ x y =
    if data_only then (x = States.P_M) <> (y = States.P_M) else x <> y
  in
  for blk = 0 to blks - 1 do
    if not data_only then begin
      let va = Protocol.observe pa ~blk and vb = Protocol.observe pb ~blk in
      if va <> vb then
        err "blk %d: directory views diverge: %s [%s] vs %s [%s]" blk
          (Format.asprintf "%a" Protocol.pp_block_view va)
          (Protocol.name pa)
          (Format.asprintf "%a" Protocol.pp_block_view vb)
          (Protocol.name pb);
      if Protocol.is_ward pa ~blk <> Protocol.is_ward pb ~blk then
        err "blk %d: wardness diverges on a checked block" blk
    end;
    for core = 0 to cores - 1 do
      match (line a ~core ~blk, line b ~core ~blk) with
      | None, None -> ()
      | (Some _ as la), None | (None as la), Some _ ->
          err "blk %d: core %d holds a copy under %s only" blk core
            (Protocol.name (if Option.is_none la then pb else pa))
      | Some la, Some lb ->
          if differ la.Fabric.state lb.Fabric.state then
            err "blk %d: core %d state diverges: %s vs %s" blk core
              (pstate_name la.Fabric.state) (pstate_name lb.Fabric.state);
          if
            not
              (Bytes.equal
                 (Linedata.bytes la.Fabric.data)
                 (Linedata.bytes lb.Fabric.data))
          then err "blk %d: core %d data diverges" blk core;
          if
            not
              (Int64.equal
                 (Linedata.dirty_mask la.Fabric.data)
                 (Linedata.dirty_mask lb.Fabric.data))
          then err "blk %d: core %d dirty mask diverges" blk core
    done;
    for slot = 0 to cores - 1 do
      let va = effective_slot a ~blk ~slot
      and vb = effective_slot b ~blk ~slot in
      if not (Int64.equal va vb) then
        err "blk %d: effective memory diverges in slot %d: %Ld vs %Ld" blk
          slot va vb
    done
  done;
  List.rev !errs

(* ---- pretty printing ------------------------------------------------------ *)

let dump t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.bprintf b fmt in
  let slots f =
    String.concat ","
      (List.init t.cfg.cores (fun s -> Printf.sprintf "%Lx" (f s)))
  in
  let show l =
    slots (fun s -> Linedata.load l ~off:(slot_off s) ~size:8)
    ^ if Linedata.is_dirty l then "]*" else "]"
  in
  add "%s" (Protocol.dump (proto t));
  for core = 0 to t.cfg.cores - 1 do
    add "  core %d:" core;
    let blks = resident t ~core in
    if blks = [] then add " (empty)";
    List.iter
      (fun blk ->
        Option.iter
          (fun pr ->
            add " b%d:%s[%s" blk
              (pstate_name pr.Fabric.state)
              (show pr.Fabric.data))
          (line t ~core ~blk))
      blks;
    add "\n"
  done;
  add "  llc:";
  let lines =
    List.filter_map
      (fun blk -> Option.map (fun l -> (blk, l)) (llc_line t ~blk))
      (List.init t.cfg.blks Fun.id)
  in
  if lines = [] then add " (empty)";
  List.iter (fun (blk, l) -> add " b%d:[%s" blk (show l)) lines;
  add "\n  oracle:";
  for blk = 0 to t.cfg.blks - 1 do
    add " b%d:[%s]" blk (slots (fun slot -> oracle t ~blk ~slot))
  done;
  add "\n";
  Buffer.contents b
