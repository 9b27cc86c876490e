open Warden_util
open Warden_mem
open Warden_machine
module Obs = Warden_obs.Obs
module Oev = Warden_obs.Events

type _ Effect.t +=
  | E_load : (Addr.t * int) -> int64 Effect.t
  | E_store : (Addr.t * int * int64) -> unit Effect.t
  | E_rmw : (Addr.t * int * (int64 -> int64)) -> int64 Effect.t
  | E_tick : int -> unit Effect.t
  | E_stall : int -> unit Effect.t
  | E_now : int Effect.t
  | E_tid : int Effect.t
  | E_region_add : (int * int) -> bool Effect.t
  | E_region_remove : (int * int) -> unit Effect.t
  | E_acquire : unit Effect.t
  | E_release : unit Effect.t
  | E_yield : unit Effect.t

type tstate = {
  tid : int;
  mutable time : int;
  mutable qlimit : int; (* inline fast path allowed while time < qlimit *)
  mutable next : unit -> unit;
      (* what the thread runs when it next reaches the heap root: its
         first turn, or the resumption of its pending effect *)
  (* Store buffer: a ring of completion times, oldest first. Fixed size
     (capacity entries + 1), so the per-store path allocates nothing. *)
  sb : int array;
  mutable sb_head : int;
  mutable sb_len : int;
}

let idle () = ()

(* The run queue is a binary min-heap of thread ids in int arrays, keyed
   by (cycle, enqueue seq): FIFO among equal cycles, so a run is a
   deterministic function of its inputs. A thread has at most one queued
   event, and only the running thread re-enqueues itself, so the running
   thread stays at the root for its whole turn. Its suspension rewrites
   the root's key and costs one sift-down; its exit removes the root. The
   other threads sit below the root, and the earliest of them is one of
   the root's two children.

   A key packs both parts into one int, [cycle lsl seq_bits lor seq], so
   a comparison is one integer compare. *)
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
  heap_tid : int array; (* one slot per hardware thread *)
  heap_key : int array;
  mutable heap_len : int;
  mutable next_seq : int;
  mutable requeued : bool; (* the running thread suspended this turn *)
  threads : tstate array;
  mutable cur_st : tstate; (* thread currently executing, for Ops *)
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
  let mk tid sb = { tid; time = 0; qlimit = 0; next = idle; sb; sb_head = 0; sb_len = 0 } in
  let threads = Array.init nthreads (fun tid -> mk tid (Array.make sb_cap 0)) in
  let cur0 = if nthreads > 0 then threads.(0) else mk (-1) [||] in
  let ms = Memsys.create cfg ~proto in
  let obs = Memsys.obs ms in
  {
    ms;
    cfg;
    obs;
    obs_on = Obs.enabled obs;
    obs_full = Obs.full obs;
    stats = Memsys.sstats ms;
    quantum = cfg.Config.sched_quantum;
    sync_on = Warden_proto.Protocol.kind (Memsys.protocol ms) = `Self;
    heap_tid = Array.make nthreads 0;
    heap_key = Array.make nthreads 0;
    heap_len = 0;
    next_seq = 0;
    requeued = false;
    threads;
    cur_st = cur0;
    used_threads = 0;
  }

let memsys t = t.ms
let config t = t.cfg

let retire t (st : tstate) n =
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
    st.time <- max st.time (sb_pop st)
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
      (* Explicit [set_now]: the inline fast path reaches here without
         passing through a scheduled closure. No block is at fault for a
         full buffer, so the record carries none. *)
      Obs.set_now t.obs st.time;
      Obs.event t.obs ~code:Oev.sb_stall
        ~core:(Config.core_of_thread t.cfg st.tid)
        ~blk:(-1)
        ~arg:(max 0 (ready - st.time))
    end;
    st.time <- max st.time ready
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

(* Place the entry (tid, k) at the root and sift it down. Every index
   read is below [heap_len], which never exceeds the arrays' length. *)
let sift_root t tid k =
  let n = t.heap_len and keys = t.heap_key and tids = t.heap_tid in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && Array.unsafe_get keys r < Array.unsafe_get keys l then r else l
      in
      let kc = Array.unsafe_get keys c in
      if kc < k then begin
        Array.unsafe_set keys !i kc;
        Array.unsafe_set tids !i (Array.unsafe_get tids c);
        i := c
      end
      else sifting := false
    end
  done;
  Array.unsafe_set keys !i k;
  Array.unsafe_set tids !i tid

(* The running thread (the root) suspends: it re-enters the queue at its
   current cycle with [fn] as its next turn. [drain_heap] applies the new
   key once the turn has returned. *)
let requeue t (st : tstate) fn =
  st.next <- fn;
  t.requeued <- true

(* Each turn re-establishes the ambient thread and opens a fresh inline
   quantum; with [sched_quantum = 0] the budget is empty and every access
   goes through the queue. *)
let resume t (st : tstate) =
  t.cur_st <- st;
  st.qlimit <- st.time + t.quantum;
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
   Under this gate the fast path replays exactly the fully scheduled pop
   order, so simulated cycles, stats and memory images are bit-identical
   for every quantum value. *)
let can_inline t (st : tstate) =
  let n = t.heap_len in
  st.time < st.qlimit
  && (n < 2 || st.time < key_time t.heap_key.(1))
  && (n < 3 || st.time < key_time t.heap_key.(2))

(* --- the hit path --------------------------------------------------------- *)

(* The engine's one hit path, shared by [Ops] (inline, under [can_inline])
   and the scheduled closures: commit the access iff it is a private-cache
   hit needing no coherence transition, charging the thread exactly what
   the scheduled miss path would ([Memsys.try_fast_*]'s contract); return
   [false], with nothing changed, otherwise. A hit load or rmw leaves its
   value in [Memsys.fast_value]. *)
let load_hit t st addr ~size =
  let lat = Memsys.try_fast_load t.ms ~thread:st.tid addr ~size in
  lat >= 0
  && begin
       st.time <- st.time + lat;
       retire t st 1;
       true
     end

let store_hit t st addr ~size v =
  let lat = Memsys.try_fast_store t.ms ~thread:st.tid addr ~size v in
  lat >= 0
  && begin
       commit_store t st lat;
       true
     end

(* [f] must be pure (all call sites are arithmetic on the old value), so
   the inline path committing the RMW before the fence drain is
   indistinguishable from the scheduled path, which drains first. *)
let rmw_hit t st addr ~size f =
  let lat = Memsys.try_fast_rmw t.ms ~thread:st.tid addr ~size f in
  lat >= 0
  && begin
       drain_all st;
       st.time <- st.time + lat + 2;
       retire t st 1;
       true
     end

let handler t st =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | E_tick n ->
            Some
              (fun (k : (a, unit) continuation) ->
                st.time <- st.time + n;
                retire t st n;
                continue k ())
        | E_stall n ->
            Some
              (fun k ->
                st.time <- st.time + n;
                continue k ())
        | E_now -> Some (fun k -> continue k st.time)
        | E_tid -> Some (fun k -> continue k st.tid)
        | E_yield -> Some (fun k -> requeue t st (fun () -> continue k ()))
        | E_load (addr, size) ->
            Some
              (fun k ->
                requeue t st (fun () ->
                    if load_hit t st addr ~size then continue k (Memsys.fast_value t.ms)
                    else begin
                      let v, lat = Memsys.load t.ms ~thread:st.tid addr ~size in
                      st.time <- st.time + lat;
                      retire t st 1;
                      continue k v
                    end))
        | E_store (addr, size, v) ->
            Some
              (fun k ->
                requeue t st (fun () ->
                    if not (store_hit t st addr ~size v) then
                      commit_store t st (Memsys.store t.ms ~thread:st.tid addr ~size v);
                    continue k ()))
        | E_rmw (addr, size, f) ->
            Some
              (fun k ->
                requeue t st (fun () ->
                    drain_all st;
                    if rmw_hit t st addr ~size f then continue k (Memsys.fast_value t.ms)
                    else begin
                      let old, lat = Memsys.rmw t.ms ~thread:st.tid addr ~size f in
                      st.time <- st.time + lat + 2;
                      retire t st 1;
                      continue k old
                    end))
        | E_region_add (lo, hi) ->
            Some
              (fun k ->
                requeue t st (fun () ->
                    st.time <- st.time + 1;
                    retire t st 1;
                    continue k (Memsys.region_add t.ms ~thread:st.tid ~lo ~hi)))
        | E_region_remove (lo, hi) ->
            Some
              (fun k ->
                requeue t st (fun () ->
                    let lat = Memsys.region_remove t.ms ~thread:st.tid ~lo ~hi in
                    st.time <- st.time + 1 + lat;
                    retire t st 1;
                    continue k ()))
        | E_acquire ->
            Some
              (fun k ->
                requeue t st (fun () ->
                    drain_all st;
                    let lat = Memsys.acquire t.ms ~thread:st.tid in
                    st.time <- st.time + 1 + lat;
                    retire t st 1;
                    continue k ()))
        | E_release ->
            Some
              (fun k ->
                requeue t st (fun () ->
                    (* A release is a fence: buffered stores complete
                       before the self-downgrade publishes them. *)
                    drain_all st;
                    let lat = Memsys.release t.ms ~thread:st.tid in
                    st.time <- st.time + 1 + lat;
                    retire t st 1;
                    continue k ()))
        | _ -> None)
  }

(* Run turns until every thread has finished. The root is the thread to
   run; its turn ends when it suspends ([requeue]: rewrite its key, sift
   it down) or finishes (remove the root). No allocation per switch. *)
let drain_heap t =
  while t.heap_len > 0 do
    let st = t.threads.(t.heap_tid.(0)) in
    resume t st;
    t.requeued <- false;
    st.next ();
    if t.requeued then sift_root t st.tid (key t st)
    else begin
      (* Finished: drop the last continuation so it is not retained. *)
      st.next <- idle;
      let last = t.heap_len - 1 in
      t.heap_len <- last;
      if last > 0 then sift_root t t.heap_tid.(last) t.heap_key.(last)
    end
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
      st.next <- (fun () -> Effect.Deep.match_with body () (handler t st));
      push t st)
    bodies;
  let prev = Domain.DLS.get cur_key in
  Domain.DLS.set cur_key (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set cur_key prev) (fun () -> drain_heap t);
  if t.obs_full then Obs.fold t.obs;
  let makespan = ref 0 in
  for tid = 0 to n - 1 do
    drain_all t.threads.(tid);
    makespan := max !makespan t.threads.(tid).time
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

module Ops = struct
  (* Each access first tries the hit path inline on the ambient engine —
     no effect performed, no continuation captured — and falls back to
     the effect (and thus the run queue) when it loses the [can_inline]
     gate, needs a coherence transition, or no engine is running on this
     domain (preserving [Effect.Unhandled] semantics). A failed hit
     attempt changes nothing. *)

  let load addr ~size =
    match Domain.DLS.get cur_key with
    | Some t when can_inline t t.cur_st && load_hit t t.cur_st addr ~size ->
        Memsys.fast_value t.ms
    | _ -> Effect.perform (E_load (addr, size))

  let store addr ~size v =
    match Domain.DLS.get cur_key with
    | Some t when can_inline t t.cur_st && store_hit t t.cur_st addr ~size v -> ()
    | _ -> Effect.perform (E_store (addr, size, v))

  let rmw addr ~size f =
    match Domain.DLS.get cur_key with
    | Some t when can_inline t t.cur_st && rmw_hit t t.cur_st addr ~size f ->
        Memsys.fast_value t.ms
    | _ -> Effect.perform (E_rmw (addr, size, f))

  let cas addr ~size ~expected ~desired =
    let old = rmw addr ~size (fun v -> if v = expected then desired else v) in
    old = expected

  let fetch_add addr ~size delta = rmw addr ~size (Int64.add delta)

  let tick n =
    match Domain.DLS.get cur_key with
    | Some t ->
        let st = t.cur_st in
        st.time <- st.time + n;
        retire t st n
    | None -> Effect.perform (E_tick n)

  let stall n =
    match Domain.DLS.get cur_key with
    | Some t -> t.cur_st.time <- t.cur_st.time + n
    | None -> Effect.perform (E_stall n)

  let now () =
    match Domain.DLS.get cur_key with
    | Some t -> t.cur_st.time
    | None -> Effect.perform E_now

  let tid () =
    match Domain.DLS.get cur_key with
    | Some t -> t.cur_st.tid
    | None -> Effect.perform E_tid

  let region_add ~lo ~hi = Effect.perform (E_region_add (lo, hi))
  let region_remove ~lo ~hi = Effect.perform (E_region_remove (lo, hi))

  (* Runtime sync-point fences. On eagerly-coherent protocols these are
     literal no-ops — no effect, no enqueue, no time — so the runtime can
     annotate its fork/join edges unconditionally without perturbing the
     MESI/WARDen schedules at all. *)
  let acquire () =
    match Domain.DLS.get cur_key with
    | Some t when not t.sync_on -> ()
    | _ -> Effect.perform E_acquire

  let release () =
    match Domain.DLS.get cur_key with
    | Some t when not t.sync_on -> ()
    | _ -> Effect.perform E_release

  let yield () = Effect.perform E_yield
end
