open Warden_util
open Warden_machine
open Warden_proto

type cfg = {
  name : string;
  world : World.cfg;
  lockstep : (Fabric.t -> Protocol.t) option;
  data_only : bool;
}

type preset =
  ?cores:int ->
  ?blks:int ->
  ?regions:int ->
  ?store_cap:int ->
  ?machine:Config.t ->
  unit ->
  cfg

let base ~name ~mk ?lockstep ?(data_only = false) ?(cores = 3) ?(blks = 2)
    ?(regions = 2) ?(store_cap = 1) ?(machine = Config.dual_socket ()) () =
  {
    name;
    world =
      { World.cores; blks; regions; store_cap; region_base = 0; machine; mk };
    lockstep;
    data_only;
  }

let of_protocol ~name ~mk = base ~name ~mk ?lockstep:None ?data_only:None
let mesi = of_protocol ~name:"mesi" ~mk:Protocol.mesi
let warden = of_protocol ~name:"warden" ~mk:Warden_core.Warden.protocol
let msi_bus = of_protocol ~name:"msi-bus" ~mk:Msi_bus.protocol
let sisd = of_protocol ~name:"sisd" ~mk:Sisd.protocol

let equivalence =
  base ~name:"mesi=warden" ~mk:Warden_core.Warden.protocol
    ~lockstep:Protocol.mesi ?data_only:None

(* Snooping MSI against directory MESI, data-only: the contents they agree
   on are the coherence contract; grant states (S where MESI grants E) and
   costs (bus arbitration vs hop latency) are architecturally free. *)
let msi_lockstep =
  base ~name:"msi-bus=mesi" ~mk:Msi_bus.protocol ~lockstep:Protocol.mesi
    ~data_only:true

(* ---- one system under test: a world, or a lockstep pair ------------------ *)

type sys = One of World.t | Two of World.t * World.t

let copy_sys = function
  | One w -> One (World.copy w)
  | Two (a, b) -> Two (World.copy a, World.copy b)

let make cfg =
  match cfg.lockstep with
  | None -> One (World.create cfg.world)
  (* Lockstep shifts the region menu past the accessed blocks: region
     instructions still execute on both protocols, but no checked block is
     ever under WARD, so the two must agree exactly. The primary (WARDen)
     world drives [enabled] — its region CAM is the one that fills up. *)
  | Some mk ->
      let w = { cfg.world with World.region_base = cfg.world.World.blks } in
      Two (World.create w, World.create { w with World.mk })

let enabled = function One w | Two (w, _) -> World.enabled w

let describe op (r : World.result) =
  match op with
  | Op.Load _ | Op.Store _ ->
      Printf.sprintf "lat=%d val=%Ld" r.World.latency
        (Option.value ~default:0L r.World.value)
  | Op.Evict _ -> if r.World.accepted then "ok" else "no copy"
  | Op.Region_add _ -> if r.World.accepted then "accepted" else "rejected"
  | Op.Region_remove _ | Op.Acquire _ | Op.Release _ ->
      Printf.sprintf "lat=%d" r.World.latency

(* Apply one op; returns a rendering of the result(s) plus any per-op
   lockstep divergence (cost-and-value equivalence, checked only for the
   memory operations — region instructions and fences are architecturally
   free to differ in cost between the two protocols; [data_only] configs
   skip the latency comparison too). *)
let step cfg sys op =
  match sys with
  | One w -> (describe op (World.apply w op), [])
  | Two (a, b) ->
      let ra = World.apply a op in
      let rb = World.apply b op in
      let errs = ref [] in
      (match op with
      | Op.Load _ | Op.Store _ ->
          if (not cfg.data_only) && ra.World.latency <> rb.World.latency then
            errs :=
              Printf.sprintf "%s: latency diverges: %d (%s) vs %d (%s)"
                (Op.to_string op) ra.World.latency
                (Protocol.name (World.proto a))
                rb.World.latency
                (Protocol.name (World.proto b))
              :: !errs;
          if ra.World.value <> rb.World.value then
            errs :=
              Printf.sprintf "%s: value diverges: %Ld vs %Ld" (Op.to_string op)
                (Option.value ~default:(-1L) ra.World.value)
                (Option.value ~default:(-1L) rb.World.value)
              :: !errs
      | Op.Evict _ | Op.Region_add _ | Op.Region_remove _ | Op.Acquire _
      | Op.Release _ ->
          ());
      ( Printf.sprintf "%s | %s" (describe op ra) (describe op rb),
        List.rev !errs )

let audit cfg = function
  | One w -> World.check w
  | Two (a, b) ->
      World.check a @ World.check b
      @ World.compare ~data_only:cfg.data_only a b

let key = function One w -> World.key w | Two (a, b) -> World.key a ^ World.key b

let dump = function
  | One w -> World.dump w
  | Two (a, b) ->
      Printf.sprintf "--- %s ---\n%s--- %s ---\n%s"
        (Protocol.name (World.proto a))
        (World.dump a)
        (Protocol.name (World.proto b))
        (World.dump b)

(* ---- counterexamples and shrinking --------------------------------------- *)

type counterexample = {
  ops : Op.t list;
  violations : string list;
  trace : string;
}

type outcome =
  | Pass of { states : int; transitions : int; complete : bool }
  | Fail of counterexample

(* Replay [ops] from scratch up to the first step that violates an
   invariant: [Some (prefix, errors of that step)], or [None] if clean. *)
let first_failure cfg ops =
  let sys = make cfg in
  let rec go acc = function
    | [] -> None
    | op :: rest -> (
        let _, step_errs = step cfg sys op in
        match step_errs @ audit cfg sys with
        | [] -> go (op :: acc) rest
        | errs -> Some (List.rev (op :: acc), errs))
  in
  go [] ops

let remove_slice l i n = List.filteri (fun j _ -> j < i || j >= i + n) l

(* Truncate to the first failing prefix, then delta-debug: try removing
   chunks of halving sizes until no single-chunk removal still fails. *)
let shrink cfg ops0 =
  let truncate ops =
    match first_failure cfg ops with Some (p, _) -> p | None -> ops
  in
  let fails ops = ops <> [] && first_failure cfg ops <> None in
  let rec pass ops chunk i =
    if chunk < 1 then ops
    else if i >= List.length ops then pass ops (chunk / 2) 0
    else
      let cand = remove_slice ops i chunk in
      if fails cand then pass (truncate cand) chunk 0
      else pass ops chunk (i + 1)
  in
  let ops0 = truncate ops0 in
  pass ops0 (max 1 (List.length ops0 / 2)) 0

let render cfg ops violations =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "counterexample for %s (%d ops):\n" cfg.name
       (List.length ops));
  let sys = make cfg in
  List.iteri
    (fun i op ->
      let desc, step_errs = step cfg sys op in
      Buffer.add_string b
        (Printf.sprintf "  %2d. %-18s %s\n" (i + 1) (Op.to_string op) desc);
      List.iter
        (fun e -> Buffer.add_string b ("      step: " ^ e ^ "\n"))
        step_errs)
    ops;
  List.iter
    (fun v -> Buffer.add_string b ("  violation: " ^ v ^ "\n"))
    violations;
  Buffer.add_string b "final state:\n";
  Buffer.add_string b (dump sys);
  Buffer.contents b

let counterexample cfg ops =
  let ops = shrink cfg ops in
  let violations =
    match first_failure cfg ops with Some (_, errs) -> errs | None -> []
  in
  Fail { ops; violations; trace = render cfg ops violations }

(* ---- engines -------------------------------------------------------------- *)

exception Found of Op.t list

(* Breadth-first exploration with canonical-state memoization. Each node
   carries its forked world ({!World.copy}) so successors cost one fork
   plus one operation — no prefix replay — and every state is expanded
   exactly once; peak memory is the two largest consecutive BFS levels.
   Successors discovered at the depth bound are still invariant-checked,
   they just aren't expanded (and clear the [complete] flag). *)
let explore cfg ~depth =
  let init = make cfg in
  match audit cfg init with
  | _ :: _ as errs ->
      Fail { ops = []; violations = errs; trace = render cfg [] errs }
  | [] -> (
      let visited = Hashtbl.create 65536 in
      let q = Queue.create () in
      let transitions = ref 0 in
      let truncated = ref false in
      Hashtbl.replace visited (key init) ();
      Queue.push (init, [], 0) q;
      try
        while not (Queue.is_empty q) do
          let sys, path, d = Queue.pop q in
          if d >= depth then truncated := true
          else
            List.iter
              (fun op ->
                incr transitions;
                let child = copy_sys sys in
                let _, step_errs = step cfg child op in
                let errs = step_errs @ audit cfg child in
                if errs <> [] then raise (Found (List.rev (op :: path)));
                let k = key child in
                if not (Hashtbl.mem visited k) then begin
                  Hashtbl.replace visited k ();
                  Queue.push (child, op :: path, d + 1) q
                end)
              (enabled sys)
        done;
        Pass
          {
            states = Hashtbl.length visited;
            transitions = !transitions;
            complete = not !truncated;
          }
      with Found ops -> counterexample cfg ops)

let fuzz cfg ~steps ~seed =
  let cfg = { cfg with world = { cfg.world with World.store_cap = 0 } } in
  let sys = make cfg in
  let rng = Splitmix.make seed in
  let seen = Hashtbl.create 1024 in
  Hashtbl.replace seen (key sys) ();
  let ops_rev = ref [] in
  let executed = ref 0 in
  try
    for _ = 1 to steps do
      match enabled sys with
      | [] -> raise Exit
      | en ->
          let op = List.nth en (Splitmix.int rng (List.length en)) in
          ops_rev := op :: !ops_rev;
          incr executed;
          let _, step_errs = step cfg sys op in
          if step_errs @ audit cfg sys <> [] then
            raise (Found (List.rev !ops_rev));
          Hashtbl.replace seen (key sys) ()
    done;
    Pass
      { states = Hashtbl.length seen; transitions = !executed; complete = false }
  with
  | Found ops -> counterexample cfg ops
  | Exit ->
      Pass
        {
          states = Hashtbl.length seen;
          transitions = !executed;
          complete = false;
        }

let pp_outcome fmt = function
  | Pass { states; transitions; complete } ->
      Format.fprintf fmt "pass: %d states, %d transitions%s" states transitions
        (if complete then ", state space exhausted" else "")
  | Fail { ops; violations = _; trace } ->
      Format.fprintf fmt "FAIL (%d-op counterexample)@.%s" (List.length ops)
        trace
