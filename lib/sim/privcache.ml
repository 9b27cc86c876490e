open Warden_cache
open Warden_proto
open Warden_machine

type line = { mutable state : States.pstate; data : Linedata.t }

(* Miss sentinel for the allocation-free fast path (and the Sa dummy
   payload). Never installed in a cache; compare with (==). *)
let no_line = { state = States.P_S; data = Linedata.create () }

type t = {
  l1 : unit Sa.t;
  l2 : line Sa.t;
  l1_lat : int;
  l2_lat : int;
  mutable last_l1 : bool; (* level of the last fast_hit: true = L1 *)
  evict : blk:int -> States.pstate -> Linedata.t -> unit;
}

let create (cfg : Config.t) ~evict =
  {
    l1 = Sa.create ~sets:(Config.l1_sets cfg) ~ways:cfg.Config.l1_ways ~dummy:();
    l2 =
      Sa.create ~sets:(Config.l2_sets cfg) ~ways:cfg.Config.l2_ways
        ~dummy:no_line;
    l1_lat = cfg.Config.l1_lat;
    l2_lat = cfg.Config.l2_lat;
    last_l1 = false;
    evict;
  }

type lookup =
  | Hit of { line : line; lat : int; level : [ `L1 | `L2 ] }
  | Upgrade of line
  | Miss

let lookup t ~blk ~write =
  let in_l1 = Sa.touch t.l1 blk in
  let w2 = Sa.find_way t.l2 blk in
  if not (Sa.hit w2) then begin
    (* Inclusion: nothing in L1 without L2. *)
    assert (not in_l1);
    Miss
  end
  else begin
    let line = Sa.value t.l2 w2 in
    if not in_l1 then
      (* Promote into L1; the displaced L1 line stays valid in L2. *)
      ignore (Sa.insert t.l1 blk ());
    match (line.state, write) with
    | States.P_S, true -> Upgrade line
    | _ ->
        Hit
          {
            line;
            lat = (if in_l1 then t.l1_lat else t.l2_lat);
            level = (if in_l1 then `L1 else `L2);
          }
  end

(* Fast-path split of [lookup]: succeed only when the access is a plain
   permission-sufficient hit, committing exactly the state changes
   [lookup]'s [Hit] branch would make (LRU refresh in both levels plus L1
   promotion). On an upgrade or miss, return [no_line] having mutated
   nothing — the caller falls back to the scheduled [lookup] path, which
   then performs those mutations at the same point of the run. *)
let fast_hit t ~blk ~write =
  let w2 = Sa.peek_way t.l2 blk in
  if not (Sa.hit w2) then no_line
  else
    let line = Sa.value t.l2 w2 in
    (* [match] rather than [=]: pstate equality would go through the
       polymorphic comparator on every access. *)
    if write && (match line.state with States.P_S -> true | _ -> false) then
      no_line
    else begin
      let in_l1 = Sa.touch t.l1 blk in
      (* Rotate the hit to the MRU-first way, exactly as the slow path's
         [Sa.find_way] does: a re-probe of the hot block then exits on the
         first comparison. Way position carries no simulated meaning
         (recency lives in [last_use], victim choice reads only that), so
         this changes no observable behavior. *)
      ignore (Sa.promote_way t.l2 blk w2 : Sa.way);
      if not in_l1 then Sa.insert_absent t.l1 blk ();
      t.last_l1 <- in_l1;
      line
    end

let last_l1 t = t.last_l1

let fill t ~blk pstate bytes =
  let line = { state = pstate; data = Linedata.create () } in
  Linedata.fill_from line.data bytes;
  (match Sa.insert t.l2 blk line with
  | None -> ()
  | Some (vblk, vline) ->
      ignore (Sa.remove t.l1 vblk);
      t.evict ~blk:vblk vline.state vline.data);
  ignore (Sa.insert t.l1 blk ());
  line

let iter_resident t f = Sa.iter t.l2 f

let check_inclusion t =
  let bad = ref None in
  Sa.iter t.l1 (fun blk () ->
      if (not (Sa.mem t.l2 blk)) && !bad = None then
        bad := Some (Printf.sprintf "block %d in L1 but not in L2" blk));
  match !bad with None -> Ok () | Some m -> Error m

(* --- snapshot (DESIGN.md §15) -------------------------------------------- *)

let pstate_code = function States.P_S -> 0 | States.P_E -> 1 | States.P_M -> 2

let pstate_of_code = function
  | 0 -> States.P_S
  | 1 -> States.P_E
  | 2 -> States.P_M
  | _ -> Warden_util.Bin.corrupt "Privcache: bad line state"

let save t w =
  let module B = Warden_util.Bin in
  Sa.save t.l1 w ~elt:(fun _ () -> ());
  Sa.save t.l2 w ~elt:(fun w ln ->
      B.w_u8 w (pstate_code ln.state);
      Linedata.save ln.data w);
  B.w_bool w t.last_l1

let restore t r =
  let module B = Warden_util.Bin in
  Sa.restore t.l1 r ~elt:(fun _ -> ());
  Sa.restore t.l2 r ~elt:(fun r ->
      let state = pstate_of_code (B.r_u8 r) in
      { state; data = Linedata.load_snap r });
  t.last_l1 <- B.r_bool r

let probe_of t blk line =
  let levels = if Sa.mem t.l1 blk then 2 else 1 in
  { Fabric.levels; state = line.state; data = line.data }

let peek t ~blk =
  let w = Sa.find_way t.l2 blk in
  if not (Sa.hit w) then None
  else Some (probe_of t blk (Sa.value t.l2 w))

let invalidate t ~blk =
  let w = Sa.find_way t.l2 blk in
  if not (Sa.hit w) then None
  else begin
    let p = probe_of t blk (Sa.value t.l2 w) in
    ignore (Sa.remove t.l1 blk);
    ignore (Sa.remove t.l2 blk);
    Some p
  end

let downgrade t ~blk =
  let w = Sa.find_way t.l2 blk in
  if not (Sa.hit w) then None
  else begin
    let line = Sa.value t.l2 w in
    let p = probe_of t blk line in
    line.state <- States.P_S;
    Some p
  end
