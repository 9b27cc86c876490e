(* Tests for the warden.check model checker: exhaustive exploration of the
   small model (MESI, WARDen, and the MESI/WARDen lockstep equivalence),
   deterministic fuzzing, and mutation coverage — deliberately broken
   protocols must be caught with short, shrunk counterexamples. *)

open Warden_machine
open Warden_proto
open Warden_check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let pass name outcome =
  match outcome with
  | Check.Pass { states; transitions; complete } ->
      Alcotest.(check bool) (name ^ ": explored something") true
        (states > 0 && transitions > 0);
      (states, transitions, complete)
  | Check.Fail ce ->
      Alcotest.failf "%s: unexpected counterexample:\n%s" name ce.Check.trace

let fail name outcome =
  match outcome with
  | Check.Fail ce ->
      Alcotest.(check bool) (name ^ ": has violations") true
        (ce.Check.violations <> []);
      Alcotest.(check bool) (name ^ ": trace rendered") true
        (contains ce.Check.trace "violation:");
      ce
  | Check.Pass _ -> Alcotest.failf "%s: bug not caught" name

(* --- exhaustive exploration ------------------------------------------------ *)

(* The MESI small model (3 cores, 2 blocks, 2 regions, 1 store per core and
   block) is small enough to close: the exact counts double as a
   determinism regression net. *)
let test_mesi_closure () =
  let states, transitions, complete =
    pass "mesi" (Check.explore (Check.mesi ()) ~depth:64)
  in
  Alcotest.(check bool) "state space exhausted" true complete;
  Alcotest.(check int) "states" 43264 states;
  Alcotest.(check int) "transitions" 458432 transitions

let test_warden_depth8 () =
  let states, _, _ =
    pass "warden" (Check.explore (Check.warden ()) ~depth:8)
  in
  Alcotest.(check int) "states" 202032 states

let test_equivalence_depth8 () =
  let states, _, _ =
    pass "mesi=warden" (Check.explore (Check.equivalence ()) ~depth:8)
  in
  Alcotest.(check int) "states" 70916 states

(* The snooping-MSI small model also closes: no E state, so it is smaller
   than MESI's. *)
let test_msi_bus_closure () =
  let states, transitions, complete =
    pass "msi-bus" (Check.explore (Check.msi_bus ()) ~depth:64)
  in
  Alcotest.(check bool) "state space exhausted" true complete;
  Alcotest.(check int) "states" 20164 states;
  Alcotest.(check int) "transitions" 214988 transitions

(* SI/SD with the fence alphabet: the canonical key carries the per-core
   synced/fresh monitor bits. The two-core model closes; the three-core
   space is fence-blown (200k+ states at depth 8 alone) and is covered by
   the bounded CLI run and the fuzzer instead. *)
let test_sisd_closure () =
  let states, _, complete =
    pass "sisd" (Check.explore (Check.sisd ~cores:2 ()) ~depth:64)
  in
  Alcotest.(check bool) "state space exhausted" true complete;
  Alcotest.(check int) "states" 4263 states

(* Snooping MSI against directory MESI in data-only lockstep: every
   interleaving leaves identical residency, bytes, dirty masks and
   effective memory (grant states and costs are free to differ). *)
let test_msi_lockstep_depth8 () =
  let states, _, _ =
    pass "msi-bus=mesi" (Check.explore (Check.msi_lockstep ()) ~depth:8)
  in
  Alcotest.(check int) "states" 26283 states

(* --- region round trip ------------------------------------------------------ *)

let world_cfg ?(cores = 2) ?(blks = 1) mk =
  (Check.of_protocol ~name:"world" ~mk ~cores ~blks ~regions:1 ~store_cap:0 ())
    .Check.world

let test_region_roundtrip () =
  let w = World.create (world_cfg Warden_core.Warden.protocol) in
  let ops =
    [
      Op.Region_add 0;
      Op.Store { core = 0; blk = 0 };
      Op.Store { core = 1; blk = 0 };
      Op.Region_remove 0;
    ]
  in
  List.iter
    (fun op ->
      ignore (World.apply w op);
      Alcotest.(check (list string))
        (Op.to_string op ^ " leaves a clean state")
        [] (World.check w))
    ops;
  let v = Protocol.observe (World.proto w) ~blk:0 in
  Alcotest.(check bool) "no W state survives the region" true
    (v.Protocol.bv_state <> States.D_W);
  Alcotest.(check bool) "not ward" false
    (Protocol.is_ward (World.proto w) ~blk:0)

let test_world_dump_and_observe () =
  let w = World.create (world_cfg Warden_core.Warden.protocol) in
  ignore (World.apply w (Op.Region_add 0));
  ignore (World.apply w (Op.Store { core = 0; blk = 0 }));
  let v = Protocol.observe (World.proto w) ~blk:0 in
  Alcotest.(check bool) "store under a region grants W" true
    (v.Protocol.bv_state = States.D_W);
  Alcotest.(check (list int)) "sharer recorded" [ 0 ] v.Protocol.bv_sharers;
  let d = World.dump w in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("dump mentions " ^ needle) true (contains d needle))
    [ "protocol warden"; "region ["; "core 0"; "llc"; "oracle" ]

(* --- fuzzing ---------------------------------------------------------------- *)

let test_fuzz_deterministic () =
  let run () =
    match Check.fuzz (Check.warden ()) ~steps:2000 ~seed:42L with
    | Check.Pass { states; transitions; _ } -> (states, transitions)
    | Check.Fail ce -> Alcotest.failf "fuzz found:\n%s" ce.Check.trace
  in
  let a = run () and b = run () in
  Alcotest.(check (pair int int)) "same walk twice" a b

(* --- mutations: injected protocol bugs must be caught ----------------------- *)

(* Broken protocols: a correct one whose fabric is wrapped at creation
   and again at every fork — the checker forks worlds before every
   transition, and [copy] rebinds the protocol to the fork's fabric, so a
   wrapper applied only at creation would be undone by the first fork. *)
module Wrapped
    (P : Protocol.S)
    (M : sig
      val name : string
      val wrap : Fabric.t -> Fabric.t
    end) =
struct
  include P

  let name = M.name
  let create fabric = P.create (M.wrap fabric)
  let copy t ~fabric = P.copy t ~fabric:(M.wrap fabric)
end

let pack (module P : Protocol.S) fabric =
  Protocol.Packed ((module P), P.create fabric)

(* Invalidations that only read the victim's copy (a peek) instead of
   removing it: an upgrading or write-missing core is granted M while
   other cores keep stale copies. *)
let peek_only f =
  { f with Fabric.invalidate_priv = f.Fabric.peek_priv }

module No_inval = Wrapped (Protocol.Mesi_protocol) (struct
  let name = "mesi-no-inval"
  let wrap = peek_only
end)

(* MESI whose dirty writebacks never reach the LLC. *)
module Lost_writeback = Wrapped (Protocol.Mesi_protocol) (struct
  let name = "mesi-lost-writeback"
  let wrap f = { f with Fabric.llc_merge = (fun ~blk:_ _ -> ()) }
end)

(* Snooping MSI whose invalidations only peek: a write upgrade or owner
   transfer leaves the other cores' stale copies resident. *)
module Bus_no_inval = Wrapped (Msi_bus.P) (struct
  let name = "msi-bus-no-inval"
  let wrap = peek_only
end)

let no_inval = pack (module No_inval)
let lost_writeback = pack (module Lost_writeback)
let bus_no_inval = pack (module Bus_no_inval)

(* WARDen whose region removal drops the CAM entry without reconciling the
   region's blocks: W state (and stale data) survives the region. *)
module Lazy_reconcile = struct
  include Warden_core.Warden.P

  let name = "warden-lazy-reconcile"

  let region_remove t ~lo ~hi =
    ignore (Warden_core.Regions.remove (regions t) ~lo ~hi);
    0
end

let lazy_reconcile = pack (module Lazy_reconcile)

(* SI/SD whose release fence reports success without self-downgrading: the
   core's dirty lines never reach the LLC, so the written data is not
   published where the release contract promises it. *)
module Sisd_no_self_down = struct
  include Sisd.P

  let name = "sisd-no-self-down"
  let release _ ~core:_ = 1
end

let sisd_no_self_down = pack (module Sisd_no_self_down)

(* SI/SD whose acquire fence flushes dirty lines but keeps every resident
   copy: reads after the fence can return stale values another core
   published before it. *)
module Sisd_no_self_inv = struct
  include Sisd.P

  let name = "sisd-no-self-inv"
  let acquire _ ~core:_ = 1
end

let sisd_no_self_inv = pack (module Sisd_no_self_inv)

let mutation name mk expect =
  let cfg = Check.of_protocol ~name ~mk () in
  let ce = fail name (Check.explore cfg ~depth:8) in
  let n = List.length ce.Check.ops in
  Alcotest.(check bool)
    (Printf.sprintf "%s: shrunk counterexample is short (%d ops)" name n)
    true
    (n >= 1 && n <= 10);
  Alcotest.(check bool)
    (Printf.sprintf "%s: violation mentions %S" name expect)
    true
    (List.exists (fun v -> contains v expect) ce.Check.violations)

let test_mutation_no_inval () = mutation "mesi-no-inval" no_inval "copies at"
let test_mutation_lost_writeback () =
  mutation "mesi-lost-writeback" lost_writeback "memory lost a write"

let test_mutation_lazy_reconcile () =
  mutation "warden-lazy-reconcile" lazy_reconcile "outside any active"

let test_mutation_bus_no_inval () =
  mutation "msi-bus-no-inval" bus_no_inval "copies at"

let test_mutation_sisd_no_self_down () =
  mutation "sisd-no-self-down" sisd_no_self_down "release fence"

let test_mutation_sisd_no_self_inv () =
  mutation "sisd-no-self-inv" sisd_no_self_inv "acquire fence"

(* The fuzzer must catch mutations too, and shrink deterministically. *)
let test_fuzz_catches_and_shrinks () =
  let cfg = Check.of_protocol ~name:"mesi-no-inval" ~mk:no_inval () in
  let run () =
    match Check.fuzz cfg ~steps:1000 ~seed:7L with
    | Check.Fail ce -> ce.Check.ops
    | Check.Pass _ -> Alcotest.fail "fuzz missed the injected bug"
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "shrunk short" true (List.length a <= 10);
  Alcotest.(check bool) "deterministic shrink" true (a = b)

(* --- forks and evictions ------------------------------------------------ *)

(* A fork is independent: whatever runs on a copy leaves the original's
   key, audit and dump as they were. *)
let test_fork_independence () =
  List.iter
    (fun (preset : Check.preset) ->
      let cfg = preset ~regions:1 () in
      let w = World.create cfg.Check.world in
      List.iter
        (fun op -> ignore (World.apply w op))
        [
          Op.Region_add 0;
          Op.Store { core = 0; blk = 0 };
          Op.Load { core = 1; blk = 0 };
          Op.Store { core = 2; blk = 1 };
        ];
      let key = World.key w and errs = World.check w and dump = World.dump w in
      List.iter
        (fun op ->
          ignore (World.apply (World.copy w) op);
          let what = cfg.Check.name ^ " after forked " ^ Op.to_string op in
          Alcotest.(check string) (what ^ ": key") key (World.key w);
          Alcotest.(check (list string)) (what ^ ": check") errs (World.check w);
          Alcotest.(check string) (what ^ ": dump") dump (World.dump w))
        (World.enabled w))
    Check.[ mesi; warden; msi_bus; sisd ]

(* An [Op.Evict] takes the private cache's capacity-victim path: a dirty
   M line reaches the protocol's [handle_evict] exactly as a victim of a
   fill does on a one-way cache. *)
let test_evict_reaches_protocol () =
  let evicted = ref [] in
  let module Spy = struct
    include Protocol.Mesi_protocol

    let handle_evict t ~core ~blk ~pstate ~data =
      evicted :=
        Format.asprintf "core %d blk %d %a dirty=%b" core blk States.pp_pstate
          pstate (Warden_cache.Linedata.is_dirty data)
        :: !evicted;
      handle_evict t ~core ~blk ~pstate ~data
  end in
  let dirty_m = [ "core 0 blk 1 M dirty=true" ] in
  let w = World.create (world_cfg ~blks:2 (pack (module Spy))) in
  ignore (World.apply w (Op.Store { core = 0; blk = 1 }));
  ignore (World.apply w (Op.Evict { core = 0; blk = 1 }));
  Alcotest.(check (list string)) "evict hands over the line" dirty_m !evicted;
  Alcotest.(check (list string)) "clean after the writeback" [] (World.check w);
  Alcotest.(check (option int64)) "the write survives in the LLC"
    (Some 0x1010001L)
    (World.apply w (Op.Load { core = 0; blk = 1 })).World.value;
  (* One way per cache level: the second block's fill evicts the first. *)
  evicted := [];
  let one_way =
    { (Config.dual_socket ()) with
      Config.l1_bytes = 64; l1_ways = 1; l2_bytes = 64; l2_ways = 1 }
  in
  let ms = Warden_sim.Memsys.create_with one_way ~mk:(pack (module Spy)) in
  List.iter
    (fun blk ->
      ignore
        (Warden_sim.Memsys.access_store ms ~thread:0
           (Warden_mem.Addr.base_of_block blk) ~size:8 1L))
    [ 1; 2 ];
  Alcotest.(check (list string)) "a capacity victim hands over the same"
    dirty_m !evicted

let suite =
  [
    Alcotest.test_case "mesi: full state space" `Slow test_mesi_closure;
    Alcotest.test_case "warden: all interleavings to depth 8" `Slow
      test_warden_depth8;
    Alcotest.test_case "mesi=warden lockstep to depth 8" `Slow
      test_equivalence_depth8;
    Alcotest.test_case "msi-bus: full state space" `Slow test_msi_bus_closure;
    Alcotest.test_case "sisd: full state space" `Slow test_sisd_closure;
    Alcotest.test_case "msi-bus=mesi data lockstep to depth 8" `Slow
      test_msi_lockstep_depth8;
    Alcotest.test_case "region add/remove round trip" `Quick
      test_region_roundtrip;
    Alcotest.test_case "dump and observe" `Quick test_world_dump_and_observe;
    Alcotest.test_case "fuzz is deterministic" `Quick test_fuzz_deterministic;
    Alcotest.test_case "mutation: dropped invalidations" `Quick
      test_mutation_no_inval;
    Alcotest.test_case "mutation: lost writebacks" `Quick
      test_mutation_lost_writeback;
    Alcotest.test_case "mutation: skipped reconciliation" `Quick
      test_mutation_lazy_reconcile;
    Alcotest.test_case "mutation: snoop kept stale sharers" `Quick
      test_mutation_bus_no_inval;
    Alcotest.test_case "mutation: dropped self-downgrade" `Quick
      test_mutation_sisd_no_self_down;
    Alcotest.test_case "mutation: dropped self-invalidate" `Quick
      test_mutation_sisd_no_self_inv;
    Alcotest.test_case "fuzz catches and shrinks" `Quick
      test_fuzz_catches_and_shrinks;
    Alcotest.test_case "fork independence" `Quick test_fork_independence;
    Alcotest.test_case "evict reaches the protocol" `Quick
      test_evict_reaches_protocol;
  ]

let () = Alcotest.run "warden-check" [ ("check", suite) ]
