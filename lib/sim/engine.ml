open Warden_util
open Warden_machine
module Obs = Warden_obs.Obs
module Oev = Warden_obs.Events

(* The one effect a thread performs. A suspending thread first writes its
   pending operation into its [tstate] (op code and operands); the run
   loop performs the operation when the thread next reaches the heap root
   and resumes it with [()], leaving any result in the thread's [word].
   Nothing is allocated per suspension beyond the continuation itself. *)
type _ Effect.t += Suspend : unit Effect.t

type op =
  | Start (* run the thread's body from the beginning *)
  | Load
  | Store
  | Rmw
  | Yield
  | Region_add
  | Region_remove
  | Acquire
  | Release
  | Fork (* hand [k] to [park], then run [body], in the same turn *)
  | Hand_off (* the body returned: continue [k] in the same turn *)

(* A suspended fiber: a thread's, or one a fork parked. *)
type parked = (unit, unit) Effect.Deep.continuation

(* A continuation that is never resumed: a thread's [k] before its first
   suspension and after it finishes, so the slot needs no option box. *)
let no_k : parked =
  let open Effect.Deep in
  let captured : (unit, unit) continuation option ref = ref None in
  match_with Effect.perform Suspend
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend ->
              Some (fun (k : (a, unit) continuation) -> captured := Some k)
          | _ -> None);
    };
  Option.get !captured

let idle () = ()

type tstate = {
  tid : int;
  mutable time : int;
  mutable qlimit : int; (* the quantum's end: inline allowed while time < qlimit *)
  (* The pending operation, read when the thread next reaches the root. *)
  mutable op : op;
  mutable addr : int; (* access address; a region's lo *)
  mutable size : int; (* access size; a region's hi *)
  mutable rmw_f : int64 -> int64;
  word : Bytes.t;
      (* 8 bytes: a pending store's value; a load's or RMW's result, and
         a region add's (1L = accepted) *)
  mutable body : unit -> unit; (* the thread's program, or a fork's body *)
  mutable park : parked -> unit; (* a fork's receiver of the parked fiber *)
  mutable k : parked;
  (* Store buffer: a ring of completion times, oldest first. Fixed size
     (capacity entries + 1), so the per-store path allocates nothing. *)
  sb : int array;
  mutable sb_head : int;
  mutable sb_len : int;
}

(* The run queue is a binary min-heap of thread ids in int arrays, keyed
   by (cycle, enqueue seq): FIFO among equal cycles, so a run is a
   deterministic function of its inputs. A thread has at most one queued
   event, and only the running thread re-enqueues itself, so the running
   thread stays at the root for its whole turn. Its suspension rewrites
   the root's key and costs one sift-down; its exit removes the root. The
   other threads sit below the root, and the earliest of them is one of
   the root's two children. (A 4-ary heap, tried, sifted slower.)

   A key packs both parts into one int, [cycle lsl seq_bits lor seq], so
   a comparison is one integer compare. Slots from [heap_len] up hold
   [max_int], so a sift reads a missing right child as "never smaller"
   and a turn reads missing children as "never earlier", with no bounds
   test. *)
type t = {
  ms : Memsys.t;
  cfg : Config.t;
  obs : Obs.t; (* cached from [Memsys.obs] *)
  obs_on : bool;
  obs_full : bool;
  stats : Sstats.t; (* cached [Memsys.sstats] *)
  quantum : int; (* inline quantum, Config.sched_quantum *)
  sync_on : bool;
      (* the protocol is [`Self]: runtime acquire/release fences must
         reach the memory system. When false, [Ops.acquire]/[Ops.release]
         are literal no-ops — no effect performed, no event enqueued — so
         eagerly-coherent protocols keep their exact schedules. *)
  heap_tid : int array; (* one slot per hardware thread, plus padding *)
  heap_key : int array;
  mutable heap_len : int;
  mutable next_seq : int;
  mutable requeued : bool; (* the running thread suspended this turn *)
  mutable others : int; (* the earliest other queued cycle; fixed for a turn *)
  mutable limit : int;
      (* the running thread may run an access inline while its clock is
         below this: [others], or its quantum's end if sooner *)
  threads : tstate array;
  mutable cur : int; (* the thread currently executing, for Ops *)
  mutable used_threads : int;
}

(* The engine currently executing on this domain, so that [Ops] can reach
   simulator state without performing an effect. One engine runs at a time
   per domain; [run] saves and restores the slot, and domain-local storage
   keeps engines on parallel harness workers independent. *)
let cur_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let create cfg ~proto =
  let sb_cap = cfg.Config.store_buffer_entries + 1 in
  let nthreads = Config.num_threads cfg in
  let mk tid sb =
    {
      tid;
      time = 0;
      qlimit = 0;
      op = Start;
      addr = 0;
      size = 0;
      rmw_f = Fun.id;
      word = Bytes.make 8 '\000';
      body = idle;
      park = ignore;
      k = no_k;
      sb;
      sb_head = 0;
      sb_len = 0;
    }
  in
  let threads = Array.init nthreads (fun tid -> mk tid (Array.make sb_cap 0)) in
  let ms = Memsys.create cfg ~proto in
  let obs = Memsys.obs ms in
  (* Room for the root's two children and a last entry's right child. *)
  let slots = Int.max 3 (nthreads + 1) in
  {
    ms;
    cfg;
    obs;
    obs_on = Obs.enabled obs;
    obs_full = Obs.full obs;
    stats = Memsys.sstats ms;
    quantum = cfg.Config.sched_quantum;
    sync_on = Warden_proto.Protocol.kind (Memsys.protocol ms) = `Self;
    heap_tid = Array.make slots 0;
    heap_key = Array.make slots max_int;
    heap_len = 0;
    next_seq = 0;
    requeued = false;
    others = 0;
    limit = 0;
    threads;
    cur = 0;
    used_threads = 0;
  }

let memsys t = t.ms
let config t = t.cfg
let[@inline] cur_st t = t.threads.(t.cur)

(* A thread's [word] as a little-endian int64, unchecked: it is 8 bytes
   by construction, and a checked read is on every access's path. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] word st =
  let x = get64u st.word 0 in
  if Sys.big_endian then bswap64 x else x

let[@inline] retire t (st : tstate) n =
  let s = t.stats in
  s.Sstats.instructions <- s.Sstats.instructions + n;
  s.Sstats.per_thread_instructions.(st.tid) <-
    s.Sstats.per_thread_instructions.(st.tid) + n

let sb_pop st =
  let v = Array.unsafe_get st.sb st.sb_head in
  let h = st.sb_head + 1 in
  st.sb_head <- (if h >= Array.length st.sb then 0 else h);
  st.sb_len <- st.sb_len - 1;
  v

let sb_push st v =
  let cap = Array.length st.sb in
  let i = st.sb_head + st.sb_len in
  Array.unsafe_set st.sb (if i >= cap then i - cap else i) v;
  st.sb_len <- st.sb_len + 1

let drain_ready st =
  while st.sb_len > 0 && Array.unsafe_get st.sb st.sb_head <= st.time do
    ignore (sb_pop st)
  done

(* A TSO fence: wait for every buffered store to complete. *)
let drain_all st =
  while st.sb_len > 0 do
    st.time <- Int.max st.time (sb_pop st)
  done

(* Store-buffer bookkeeping shared by the scheduled and inline store
   paths: free ready slots, stall on a full buffer, enqueue the new
   store's completion, retire in one cycle. *)
let commit_store t st lat =
  drain_ready st;
  if st.sb_len >= t.cfg.Config.store_buffer_entries then begin
    t.stats.Sstats.sb_stalls <- t.stats.Sstats.sb_stalls + 1;
    let ready = sb_pop st in
    if t.obs_on then begin
      (* Explicit [set_now]: an inline store reaches here without a
         turn's [resume]. No block is at fault for a full buffer, so the
         record carries none. *)
      Obs.set_now t.obs st.time;
      Obs.event t.obs ~code:Oev.sb_stall
        ~core:(Config.core_of_thread t.cfg st.tid)
        ~blk:(-1)
        ~arg:(Int.max 0 (ready - st.time))
    end;
    st.time <- Int.max st.time ready
  end;
  sb_push st (st.time + lat);
  st.time <- st.time + 1;
  retire t st 1

(* --- the thread heap ------------------------------------------------------ *)

let seq_bits = 20
let seq_mask = (1 lsl seq_bits) - 1
let time_bits = Sys.int_size - 1 - seq_bits (* keys stay non-negative *)

let key_time key = key lsr seq_bits

(* The seqs of queued entries only need to be ordered among themselves.
   When the counter fills its bits, rank the queued entries' seqs afresh:
   every comparison between them is unchanged. *)
let renumber t =
  let seq slot = t.heap_key.(slot) land seq_mask in
  let slots = Array.init t.heap_len Fun.id in
  Array.sort (fun a b -> compare (seq a) (seq b)) slots;
  Array.iteri
    (fun rank slot -> t.heap_key.(slot) <- t.heap_key.(slot) land lnot seq_mask lor rank)
    slots;
  t.next_seq <- t.heap_len

let key t (st : tstate) =
  if st.time lsr time_bits <> 0 then failwith "Engine: simulated time out of range";
  if t.next_seq > seq_mask then renumber t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (st.time lsl seq_bits) lor seq

(* Insert a thread that is not running (a run's first turns). *)
let push t (st : tstate) =
  let k = key t st in
  let i = ref t.heap_len and sifting = ref true in
  t.heap_len <- t.heap_len + 1;
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if k < t.heap_key.(p) then begin
      t.heap_key.(!i) <- t.heap_key.(p);
      t.heap_tid.(!i) <- t.heap_tid.(p);
      i := p
    end
    else sifting := false
  done;
  t.heap_key.(!i) <- k;
  t.heap_tid.(!i) <- st.tid

(* Place the entry (tid, k) at the root and sift it down. The smaller
   child is picked by arithmetic, not a branch: a missing right child
   reads as [max_int]. Every index read is at most [heap_len], within the
   arrays' padding. *)
let sift_root t tid k =
  let n = t.heap_len and keys = t.heap_key and tids = t.heap_tid in
  let i = ref 0 and l = ref 1 in
  while
    !l < n
    &&
    let l0 = !l in
    let c =
      l0 + Bool.to_int (Array.unsafe_get keys (l0 + 1) < Array.unsafe_get keys l0)
    in
    let kc = Array.unsafe_get keys c in
    kc < k
    && begin
         Array.unsafe_set keys !i kc;
         Array.unsafe_set tids !i (Array.unsafe_get tids c);
         i := c;
         l := (2 * c) + 1;
         true
       end
  do
    ()
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set tids !i tid

(* The root's thread finished: move the last entry to the root. *)
let remove_root t =
  let last = t.heap_len - 1 in
  let k = t.heap_key.(last) and tid = t.heap_tid.(last) in
  t.heap_key.(last) <- max_int;
  t.heap_len <- last;
  if last > 0 then sift_root t tid k

(* Each turn re-establishes the ambient thread and opens a fresh inline
   quantum; with [sched_quantum = 0] the budget is empty and every access
   goes through the queue. The heap does not change during a turn, so the
   earliest other queued cycle is read here once. *)
let open_quantum t (st : tstate) t0 =
  st.qlimit <- t0 + t.quantum;
  t.limit <- Int.min st.qlimit t.others

let resume t (st : tstate) =
  t.cur <- st.tid;
  let keys = t.heap_key in
  t.others <-
    key_time (Int.min (Array.unsafe_get keys 1) (Array.unsafe_get keys 2));
  open_quantum t st st.time;
  (* The recorder timestamps ring records with the resumed event's issue
     time; only full mode rings, so off/counters skip the store. *)
  if t.obs_full then Obs.set_now t.obs st.time

(* An access may run inline — without suspending into the run queue — iff
   it is provably the event the scheduled path would pop next: the
   thread's clock must be strictly below every other queued cycle (a tie
   loses, since the queued entry was enqueued earlier and FIFO order puts
   it first). The running thread is the root, so the earliest other
   thread is one of its two children. The quantum bounds how long one
   thread may monopolize the host before taking the queue path anyway.
   Under this gate the inline path replays exactly the fully scheduled
   pop order, so simulated cycles, stats and memory images are
   bit-identical for every quantum value. [resume] folds all of it into
   [t.limit], so the gate is one compare.

   An inline access may miss. It then does what the pop it stands for
   would have done at its issue cycle [t0]: the recorder's clock is set
   before the access (its events ring at [t0]), and a new quantum opens
   from [t0] after it, so each thread's saved [qlimit] is the same as
   when every miss went through the queue. *)
let[@inline] inline_enter t t0 =
  if t.obs_full then Obs.set_now t.obs t0;
  t.stats.Sstats.priv_misses

let[@inline] inline_leave t st t0 misses =
  if t.stats.Sstats.priv_misses <> misses then open_quantum t st t0

(* --- the operations ------------------------------------------------------- *)

(* What an operation does to the thread, shared by the inline path and
   the run loop. Accesses go through the memory system's one transition
   per operation ([Memsys.access_*]), hit or miss. *)

let[@inline] do_load t st addr ~size =
  let lat = Memsys.access_load t.ms ~thread:st.tid addr ~size st.word in
  st.time <- st.time + lat;
  retire t st 1

let[@inline] do_store t st addr ~size v =
  commit_store t st (Memsys.access_store t.ms ~thread:st.tid addr ~size v)

(* An RMW is a TSO fence: it drains the store buffer first. *)
let do_rmw t st addr ~size f =
  drain_all st;
  let lat = Memsys.access_rmw t.ms ~thread:st.tid addr ~size f st.word in
  st.time <- st.time + lat + 2;
  retire t st 1

(* Perform the root thread's pending operation and resume it. *)
let step t st =
  (match st.op with
  | Start | Yield | Fork | Hand_off -> ()
  | Load -> do_load t st st.addr ~size:st.size
  | Store -> do_store t st st.addr ~size:st.size (word st)
  | Rmw -> do_rmw t st st.addr ~size:st.size st.rmw_f
  | Region_add ->
      st.time <- st.time + 1;
      retire t st 1;
      let ok = Memsys.region_add t.ms ~thread:st.tid ~lo:st.addr ~hi:st.size in
      Bytes.set_int64_le st.word 0 (if ok then 1L else 0L)
  | Region_remove ->
      let lat =
        Memsys.region_remove t.ms ~thread:st.tid ~lo:st.addr ~hi:st.size
      in
      st.time <- st.time + 1 + lat;
      retire t st 1
  | Acquire ->
      drain_all st;
      let lat = Memsys.acquire t.ms ~thread:st.tid in
      st.time <- st.time + 1 + lat;
      retire t st 1
  | Release ->
      (* A release is a fence: buffered stores complete before the
         self-downgrade publishes them. *)
      drain_all st;
      let lat = Memsys.release t.ms ~thread:st.tid in
      st.time <- st.time + 1 + lat;
      retire t st 1);
  Effect.Deep.continue st.k ()

(* The handler of every thread of a run, and the only one on a thread's
   path. A suspension stores the continuation in the running thread's
   state and returns to the run loop; a fork does the same without
   requeueing the thread. The [Some] is allocated once per run, not per
   suspension. *)
let handler t =
  let open Effect.Deep in
  let suspend =
    Some
      (fun k ->
        let st = cur_st t in
        st.k <- k;
        t.requeued <- (match st.op with Fork -> false | _ -> true))
  in
  {
    retc = idle;
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with Suspend -> suspend | _ -> None);
  }

(* The end of the running thread's turn, once its fiber has returned to
   the run loop. It suspended: rewrite its key and sift it down. It forked:
   hand the parked fiber to the fork's receiver and run the fork's body.
   Its body returned after a hand-off: continue the parked fiber. Its body
   returned otherwise: it has finished, so remove the root. A fork or
   hand-off takes no time and stays in the turn, so neither ever nests a
   fiber inside another. *)
let rec settle t st h =
  if t.requeued then sift_root t st.tid (key t st)
  else
    match st.op with
    | Fork ->
        let park = st.park and body = st.body in
        (* Spent, so that a body returning later finishes the thread. *)
        st.op <- Start;
        st.park <- ignore;
        st.body <- idle;
        park st.k;
        Effect.Deep.match_with body () h;
        settle t st h
    | Hand_off ->
        st.op <- Start;
        Effect.Deep.continue st.k ();
        settle t st h
    | _ ->
        (* Finished: drop the spent continuation. *)
        st.k <- no_k;
        remove_root t

(* Run turns until every thread has finished. The root is the thread to
   run. A turn that ends in a suspension, the common case, sifts without
   calling [settle]. *)
let drain_heap t h =
  while t.heap_len > 0 do
    let st = t.threads.(t.heap_tid.(0)) in
    resume t st;
    t.requeued <- false;
    (match st.op with
    | Start ->
        let body = st.body in
        st.body <- idle;
        Effect.Deep.match_with body () h
    | _ -> step t st);
    if t.requeued then sift_root t st.tid (key t st) else settle t st h
  done

(* [run] may be called repeatedly on one engine: each call is a phase, and
   thread clocks and the stat records carry over, so phase N+1 continues
   the simulated timeline where phase N stopped. The boundary between
   phases is the engine's only quiescent point — the heap empty, store
   buffers drained, no live continuation — which is exactly where
   {!snapshot}/{!restore} are legal. *)
let run t bodies =
  let n = Array.length bodies in
  if n > Array.length t.threads then invalid_arg "Engine.run: too many threads";
  t.used_threads <- max t.used_threads n;
  let cycles_at_start = t.stats.Sstats.cycles in
  Array.iteri
    (fun tid body ->
      let st = t.threads.(tid) in
      st.op <- Start;
      st.body <- body;
      push t st)
    bodies;
  let h = handler t in
  let prev = Domain.DLS.get cur_key in
  Domain.DLS.set cur_key (Some t);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set cur_key prev)
    (fun () -> drain_heap t h);
  if t.obs_full then Obs.fold t.obs;
  let makespan = ref 0 in
  for tid = 0 to n - 1 do
    drain_all t.threads.(tid);
    makespan := Int.max !makespan t.threads.(tid).time
  done;
  t.stats.Sstats.cycles <- max cycles_at_start !makespan;
  let cores_used =
    min (Config.num_cores t.cfg)
      ((n + t.cfg.Config.threads_per_core - 1) / t.cfg.Config.threads_per_core)
  in
  (* Charge only this phase's cycle delta: a single-phase run starts at
     cycle 0 and pays the full makespan, unchanged. *)
  Energy.core_cycles (Memsys.energy t.ms) ~cores:cores_used
    ~cycles:(max 0 (!makespan - cycles_at_start));
  !makespan

(* --- snapshot/restore (DESIGN.md §15) ------------------------------------ *)

(* Engine-level scheduler state that survives across phases. Effects-based
   continuations cannot serialize, so snapshots are only legal between
   [run]s — which is also the only time there is nothing unserializable
   alive: the heap empty, store buffers drained. The running thread stays
   in the heap for its whole turn, so a call from inside a run always
   finds it non-empty. *)
let check_quiescent t what =
  if t.heap_len > 0 then invalid_arg ("Engine." ^ what ^ ": run in progress")

let snapshot t w =
  check_quiescent t "snapshot";
  Bin.w_int w (Array.length t.threads);
  Array.iter
    (fun st ->
      assert (st.sb_len = 0);
      Bin.w_int w st.time;
      Bin.w_int w st.qlimit)
    t.threads;
  Bin.w_int w t.used_threads;
  Memsys.save_state t.ms w

let restore t r =
  check_quiescent t "restore";
  let n = Bin.r_int r in
  if n <> Array.length t.threads then
    Bin.corrupt "Engine: thread count mismatch";
  Array.iter
    (fun st ->
      st.time <- Bin.r_int r;
      st.qlimit <- Bin.r_int r;
      st.sb_head <- 0;
      st.sb_len <- 0)
    t.threads;
  t.used_threads <- Bin.r_int r;
  Memsys.restore_state t.ms r

(* --- operations on the running engine -------------------------------------- *)

(* Suspend the running thread with pending operation [op]. *)
let[@inline] suspend st op =
  st.op <- op;
  Effect.perform Suspend

module On = struct
  (* Each access runs inline — no effect performed, no continuation
     captured — when it passes the gate, hit or miss; otherwise it
     writes itself into the thread's state and suspends. Either way its
     result is in the thread's [word]. *)

  let load t addr ~size =
    let st = cur_st t in
    let t0 = st.time in
    if t0 < t.limit then begin
      let misses = inline_enter t t0 in
      do_load t st addr ~size;
      inline_leave t st t0 misses
    end
    else begin
      st.addr <- addr;
      st.size <- size;
      suspend st Load
    end;
    word st

  let store t addr ~size v =
    let st = cur_st t in
    let t0 = st.time in
    if t0 < t.limit then begin
      let misses = inline_enter t t0 in
      do_store t st addr ~size v;
      inline_leave t st t0 misses
    end
    else begin
      st.addr <- addr;
      st.size <- size;
      Bytes.set_int64_le st.word 0 v;
      suspend st Store
    end

  (* The inline RMW drains the store buffer exactly as the scheduled one
     does at its pop, so the two are the same operation at the same
     point of the run. *)
  let rmw t addr ~size f =
    let st = cur_st t in
    let t0 = st.time in
    if t0 < t.limit then begin
      let misses = inline_enter t t0 in
      do_rmw t st addr ~size f;
      inline_leave t st t0 misses
    end
    else begin
      st.addr <- addr;
      st.size <- size;
      st.rmw_f <- f;
      suspend st Rmw;
      st.rmw_f <- Fun.id
    end;
    word st

  let cas t addr ~size ~expected ~desired =
    let old = rmw t addr ~size (fun v -> if v = expected then desired else v) in
    old = expected

  let fetch_add t addr ~size delta = rmw t addr ~size (Int64.add delta)
end

module Ops = struct
  (* The ambient forms of [On]: they find the engine running on this
     domain, and raise [Effect.Unhandled] when there is none. *)

  let[@inline] engine () =
    match Domain.DLS.get cur_key with
    | Some t -> t
    | None -> raise (Effect.Unhandled Suspend)

  let load addr ~size = On.load (engine ()) addr ~size
  let store addr ~size v = On.store (engine ()) addr ~size v
  let rmw addr ~size f = On.rmw (engine ()) addr ~size f

  let cas addr ~size ~expected ~desired =
    On.cas (engine ()) addr ~size ~expected ~desired

  let fetch_add addr ~size delta = On.fetch_add (engine ()) addr ~size delta

  let tick n =
    let t = engine () in
    let st = cur_st t in
    st.time <- st.time + n;
    retire t st n

  let stall n =
    let st = cur_st (engine ()) in
    st.time <- st.time + n

  let now () = (cur_st (engine ())).time
  let tid () = (cur_st (engine ())).tid

  (* Region operations always schedule: they mutate directory-visible
     protocol state, so they stay globally ordered by construction. *)
  let region_add ~lo ~hi =
    let st = cur_st (engine ()) in
    st.addr <- lo;
    st.size <- hi;
    suspend st Region_add;
    word st <> 0L

  let region_remove ~lo ~hi =
    let st = cur_st (engine ()) in
    st.addr <- lo;
    st.size <- hi;
    suspend st Region_remove

  (* Runtime sync-point fences. On eagerly-coherent protocols these are
     literal no-ops — no effect, no enqueue, no time — so the runtime can
     annotate its fork/join edges unconditionally without perturbing the
     MESI/WARDen schedules at all. *)
  let acquire () =
    let t = engine () in
    if t.sync_on then suspend (cur_st t) Acquire

  let release () =
    let t = engine () in
    if t.sync_on then suspend (cur_st t) Release

  let yield () = suspend (cur_st (engine ())) Yield

  let fork ~park body =
    let st = cur_st (engine ()) in
    st.park <- park;
    st.body <- body;
    suspend st Fork

  let hand_off k =
    let st = cur_st (engine ()) in
    st.k <- k;
    st.op <- Hand_off
end
