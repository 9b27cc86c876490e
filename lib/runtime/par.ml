open Warden_util
open Warden_sim
module Ops = Engine.Ops

type rstats = {
  mutable forks : int;
  mutable tasks : int;
  mutable steals : int;
  mutable steal_attempts : int;
  mutable allocs : int;
}

type tcb = { task_id : int; heap : Heap.t }

(* A task returns true when it handed its thread off to a parked parent:
   the fiber that ran it must then return to the engine. *)
type task = unit -> bool

type sched = {
  eng : Engine.t;
  ms : Memsys.t;
  params : Rtparams.t;
  nworkers : int;
  deques : task Deque.t array;
  lock_addr : int array; (* simulated per-deque lock word *)
  rngs : Splitmix.t array;
  ctx : tcb option array;
  stats : rstats;
  mutable scratch : int; (* bump pointer for never-marked handoff space *)
  mutable scratch_end : int;
  mutable next_task : int;
  mutable finished : bool;
}

type access_kind = R | W | RMW

(* The active scheduler and the trace hook, in one domain-local record:
   the harness can run independent simulations on parallel domains, and
   a program access finds both, and the engine, with one lookup. *)
type ambient = {
  mutable sched : sched option;
  mutable hook : (access_kind -> addr:int -> size:int -> value:int64 -> unit) option;
}

let ambient_key : ambient Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { sched = None; hook = None })

let[@inline] ambient () = Domain.DLS.get ambient_key

let sched () =
  match (ambient ()).sched with
  | Some s -> s
  | None -> failwith "Par: no active run"

let set_access_hook f = (ambient ()).hook <- Some f
let clear_access_hook () = (ambient ()).hook <- None

let[@inline] hook a kind ~addr ~size ~value =
  match a.hook with None -> () | Some f -> f kind ~addr ~size ~value

(* --- user-facing memory operations ------------------------------------ *)

(* Outside a [run], the ambient [Ops] answer (and raise as documented). *)

let read addr ~size =
  let a = ambient () in
  hook a R ~addr ~size ~value:0L;
  match a.sched with
  | Some s -> Engine.On.load s.eng addr ~size
  | None -> Ops.load addr ~size

let write addr ~size v =
  let a = ambient () in
  hook a W ~addr ~size ~value:v;
  match a.sched with
  | Some s -> Engine.On.store s.eng addr ~size v
  | None -> Ops.store addr ~size v

let cas addr ~size ~expected ~desired =
  let a = ambient () in
  hook a RMW ~addr ~size ~value:desired;
  match a.sched with
  | Some s -> Engine.On.cas s.eng addr ~size ~expected ~desired
  | None -> Ops.cas addr ~size ~expected ~desired

let fetch_add addr ~size delta =
  let a = ambient () in
  hook a RMW ~addr ~size ~value:0L;
  match a.sched with
  | Some s -> Engine.On.fetch_add s.eng addr ~size delta
  | None -> Ops.fetch_add addr ~size delta

let tick = Ops.tick

let current_tcb () =
  match (ambient ()).sched with
  | None -> None
  | Some s -> s.ctx.(Ops.tid ())

let current_heap () = Option.map (fun t -> t.heap) (current_tcb ())

let memsys () = (sched ()).ms

let alloc ~bytes =
  let s = sched () in
  match s.ctx.(Ops.tid ()) with
  | None -> failwith "Par.alloc: no current task"
  | Some tcb ->
      s.stats.allocs <- s.stats.allocs + 1;
      Heap.alloc s.ms s.params tcb.heap ~bytes

(* Never-marked allocation for fork metadata when the ablation disables
   heap-resident handoff. *)
let scratch_alloc s bytes =
  let size = (bytes + 63) land lnot 63 in
  if s.scratch + size > s.scratch_end then begin
    s.scratch <- Memsys.alloc s.ms ~bytes:65536 ~align:4096;
    s.scratch_end <- s.scratch + 65536
  end;
  let a = s.scratch in
  s.scratch <- s.scratch + size;
  a

(* --- fork-join machinery ----------------------------------------------- *)

(* A fork's join record. The parent parks in [k] until its last child
   hands its thread off to it. *)
type ('a, 'b) join = {
  parent : tcb;
  desc : int; (* the children's descriptor *)
  sync : int; (* join counter, then the two result slots *)
  mutable k : Engine.parked option;
  mutable ra : 'a option;
  mutable rb : 'b option;
}

let new_task_id s =
  s.next_task <- s.next_task + 1;
  s.next_task

(* Run [f] as a child of [j] in a fresh task context (fresh heap child of
   the parent's heap), and join. The descriptor reads model the child
   fetching its closure from the forking task's memory. Returns true when
   this child finished last and handed its thread off to the parent. *)
let child s j ~slot ~finish f =
  (* Acquire: the task may have been stolen, so everything the forking
     thread published (descriptor, heap data) must be re-observed. Under
     eagerly-coherent protocols this is a free no-op. *)
  Ops.acquire ();
  let tid = Ops.tid () in
  let heap = Heap.fresh s.ms s.params ~parent:(Some j.parent.heap) in
  let tcb = { task_id = new_task_id s; heap } in
  s.stats.tasks <- s.stats.tasks + 1;
  s.ctx.(tid) <- Some tcb;
  (* Prologue: fetch the function pointer, environment and join info. *)
  for i = 0 to 3 do
    ignore (Ops.load (j.desc + (8 * i)) ~size:8)
  done;
  let v = f () in
  (* Publish the result in the parent's join frame (as MPL does: results
     are pointers written into the suspended parent's frame), then join. *)
  Ops.store slot ~size:8 1L;
  Ops.tick s.params.Rtparams.join_cost;
  (* Join-time reconciliation: a non-last child's WARD data will be read
     by the parent from another hardware thread, so it must be unmarked
     (flushed) now. The last finisher keeps its pages marked — the parent
     resumes on this very hardware thread, so no cross-thread RAW arises
     (§3.1 is a hardware-thread property) and the pages stay WARD until
     the parent's own next fork or join. The pre-read of the counter is a
     heuristic: racing siblings may both flush, which is merely the
     conservative outcome. *)
  if Ops.load j.sync ~size:8 > 1L then Heap.unmark_all heap;
  Heap.merge_into ~child:heap ~parent:j.parent.heap;
  finish v;
  (* Release before the join decrement: the result slot and the task's
     writes must be published before the sibling (or parent) can observe
     the counter reaching zero. *)
  Ops.release ();
  Ops.fetch_add j.sync ~size:8 (-1L) = 1L
  && begin
       (* The last finisher may not be the thread that observed the other
          child's release: acquire before touching the results. The
          parent resumes on this thread and touches both results. *)
       Ops.acquire ();
       ignore (Ops.load (j.sync + 8) ~size:8);
       ignore (Ops.load (j.sync + 16) ~size:8);
       s.ctx.(Ops.tid ()) <- Some j.parent;
       Ops.hand_off (Option.get j.k);
       true
     end

(* One steal attempt, Chase-Lev style: read the victim's published top
   pointer first (a cheap shared load that stays cached while the victim's
   deque is quiet), and only contend with a CAS when there appears to be
   work. *)
let try_steal s tid =
  s.stats.steal_attempts <- s.stats.steal_attempts + 1;
  Ops.stall s.params.Rtparams.steal_probe_cost;
  let victim =
    let v = Splitmix.int s.rngs.(tid) (s.nworkers - 1) in
    if v >= tid then v + 1 else v
  in
  (* The lock word doubles as the victim's "age" publication: loading it
     is the thief's peek. *)
  ignore (Ops.load s.lock_addr.(victim) ~size:8);
  if Deque.is_empty s.deques.(victim) then None
  else if Ops.cas s.lock_addr.(victim) ~size:8 ~expected:0L ~desired:1L then begin
    let stolen = Deque.steal_top s.deques.(victim) in
    Ops.store s.lock_addr.(victim) ~size:8 0L;
    (* Publish the unlock: without this a [`Self] protocol would leave
       the cleared lock word dirty in the thief's cache, and the next
       contender's coherent CAS would read a stale locked value from the
       LLC. *)
    Ops.release ();
    if Option.is_some stolen then begin
      s.stats.steals <- s.stats.steals + 1;
      Ops.stall s.params.Rtparams.steal_move_cost
    end;
    stolen
  end
  else None

(* A task for thread [tid]: its own deque's bottom, else a stolen one;
   [None] once the run is over. Idle workers back off exponentially, from
   [backoff], so they do not flood the interconnect with probe traffic. *)
let rec find_task s tid backoff =
  if s.finished then None
  else
    match Deque.pop_bottom s.deques.(tid) with
    | Some _ as task -> task
    | None -> (
        match try_steal s tid with
        | Some _ as task -> task
        | None ->
            Ops.stall backoff;
            find_task s tid (min (16 * s.params.Rtparams.idle_backoff) (2 * backoff)))

(* The worker loop: every thread's first fiber, and the rest of every
   fork's body. A parked parent carries these frames to whichever thread
   resumes it, so the loop keeps nothing per thread in them: it reads its
   thread afresh for each task, and the backoff restarts with each search.
   It returns when the run is over, or when a task handed its thread off. *)
let rec worker s () =
  match find_task s (Ops.tid ()) s.params.Rtparams.idle_backoff with
  | Some task -> if not (task ()) then worker s ()
  | None -> ()

let par2 fa fb =
  let s = sched () in
  let tid = Ops.tid () in
  let parent = match s.ctx.(tid) with Some t -> t | None -> assert false in
  s.stats.forks <- s.stats.forks + 1;
  Ops.tick s.params.Rtparams.fork_cost;
  (* Fork-time handoff: the descriptor the stolen child will read lives in
     the forking task's heap, written before the fork point so the unmark
     below flushes it to the shared cache (the §5.3 software
     optimization). The join counter and result slots are scheduler state
     (as in MPL): they are write-shared synchronization words, so they
     live in never-marked runtime memory, padded to a cache line so
     unrelated forks' sync words never share a block. *)
  let desc =
    if s.params.Rtparams.handoff_in_heap then
      Heap.alloc s.ms s.params parent.heap ~bytes:32
    else scratch_alloc s 32
  in
  let sync = scratch_alloc s 64 in
  for i = 0 to 3 do
    Ops.store (desc + (8 * i)) ~size:8 (Int64.of_int (desc + i))
  done;
  Ops.store sync ~size:8 2L;
  (* The fork makes this heap internal: unmark its pages. *)
  Heap.unmark_all parent.heap;
  (* Release: publish the descriptor, sync words and heap before the
     right child becomes visible to thieves. *)
  Ops.release ();
  let j = { parent; desc; sync; k = None; ra = None; rb = None } in
  Deque.push_bottom s.deques.(tid) (fun () ->
      child s j ~slot:(sync + 16) ~finish:(fun v -> j.rb <- Some v) fb);
  (* Park here and run the left child on this thread, then work. *)
  Engine.Ops.fork
    ~park:(fun k -> j.k <- Some k)
    (fun () ->
      if not (child s j ~slot:(sync + 8) ~finish:(fun v -> j.ra <- Some v) fa)
      then worker s ());
  match (j.ra, j.rb) with Some a, Some b -> (a, b) | _ -> assert false

(* --- derived combinators ------------------------------------------------ *)

let default_grain () = (sched ()).params.Rtparams.default_grain

let rec parfor ?grain lo hi f =
  let g = match grain with Some g -> max 1 g | None -> default_grain () in
  if hi - lo <= g then
    for i = lo to hi - 1 do
      f i
    done
  else begin
    let mid = lo + ((hi - lo) / 2) in
    ignore (par2 (fun () -> parfor ~grain:g lo mid f) (fun () -> parfor ~grain:g mid hi f))
  end

let rec parreduce ?grain lo hi ~map ~combine ~init =
  let g = match grain with Some g -> max 1 g | None -> default_grain () in
  if hi <= lo then init
  else if hi - lo <= g then begin
    let acc = ref init in
    for i = lo to hi - 1 do
      acc := combine !acc (map i)
    done;
    !acc
  end
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let a, b =
      par2
        (fun () -> parreduce ~grain:g lo mid ~map ~combine ~init)
        (fun () -> parreduce ~grain:g mid hi ~map ~combine ~init)
    in
    combine a b
  end

(* --- top level ----------------------------------------------------------- *)

let run ?(params = Rtparams.default) ?workers eng main =
  let a = ambient () in
  if Option.is_some a.sched then failwith "Par.run: already running";
  let cfg = Engine.config eng in
  let nthreads = Warden_machine.Config.num_threads cfg in
  let nworkers =
    match workers with
    | None -> nthreads
    | Some w ->
        if w < 1 || w > nthreads then invalid_arg "Par.run: workers";
        w
  in
  let ms = Engine.memsys eng in
  Heap.reset_registry ();
  let s =
    {
      eng;
      ms;
      params;
      nworkers;
      deques = Array.init nworkers (fun _ -> Deque.create ());
      lock_addr =
        Array.init nworkers (fun _ -> Memsys.alloc ms ~bytes:64 ~align:64);
      rngs =
        Array.init nworkers (fun i ->
            Splitmix.make (Int64.add params.Rtparams.seed (Int64.of_int i)));
      ctx = Array.make nthreads None;
      stats = { forks = 0; tasks = 0; steals = 0; steal_attempts = 0; allocs = 0 };
      scratch = 0;
      scratch_end = 0;
      next_task = 0;
      finished = false;
    }
  in
  a.sched <- Some s;
  let result = ref None in
  let root () =
    let tid = Ops.tid () in
    let heap = Heap.fresh ms params ~parent:None in
    s.ctx.(tid) <- Some { task_id = new_task_id s; heap };
    s.stats.tasks <- s.stats.tasks + 1;
    let v = main () in
    Heap.unmark_all heap;
    result := Some v;
    s.finished <- true;
    false
  in
  Deque.push_bottom s.deques.(0) root;
  let bodies = Array.make nworkers (worker s) in
  Fun.protect
    ~finally:(fun () -> a.sched <- None)
    (fun () -> ignore (Engine.run eng bodies));
  match !result with
  | Some v -> (v, s.stats)
  | None -> failwith "Par.run: root task did not complete"
