(* Structure-of-arrays binary heap: priorities and insertion sequence
   numbers live in unboxed int arrays, payloads in a parallel option
   array. Compared with an array-of-records heap this avoids one record
   allocation per [add], keeps sift swaps on unboxed ints, and lets
   vacated slots be reset to [None] so popped or cleared payloads are
   never retained by the backing storage. *)

type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable data : 'a option array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { prio = [||]; seq = [||]; data = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* Entry [i] comes before entry [j] if its priority is smaller, FIFO on
   ties. *)
let before t i j =
  t.prio.(i) < t.prio.(j) || (t.prio.(i) = t.prio.(j) && t.seq.(i) < t.seq.(j))

let swap t i j =
  let p = t.prio.(i) in
  t.prio.(i) <- t.prio.(j);
  t.prio.(j) <- p;
  let s = t.seq.(i) in
  t.seq.(i) <- t.seq.(j);
  t.seq.(j) <- s;
  let d = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- d

let ensure_capacity t =
  let cap = Array.length t.prio in
  if t.size = cap then begin
    let fresh_cap = max 16 (2 * cap) in
    let grow_int a =
      let fresh = Array.make fresh_cap 0 in
      Array.blit a 0 fresh 0 cap;
      fresh
    in
    t.prio <- grow_int t.prio;
    t.seq <- grow_int t.seq;
    (* Fresh slots hold [None]: growing never retains stale payloads. *)
    let fresh = Array.make fresh_cap None in
    Array.blit t.data 0 fresh 0 cap;
    t.data <- fresh
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t l !smallest then smallest := l;
  if r < t.size && before t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let add t ~prio payload =
  ensure_capacity t;
  let i = t.size in
  t.prio.(i) <- prio;
  t.seq.(i) <- t.next_seq;
  t.data.(i) <- Some payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i

let min_prio_or t ~default = if t.size = 0 then default else t.prio.(0)

let min_prio t = if t.size = 0 then None else Some t.prio.(0)

let peek t =
  if t.size = 0 then None
  else
    match t.data.(0) with
    | Some v -> Some (t.prio.(0), v)
    | None -> assert false

let remove_top t =
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.prio.(0) <- t.prio.(t.size);
    t.seq.(0) <- t.seq.(t.size);
    t.data.(0) <- t.data.(t.size);
    t.data.(t.size) <- None;
    sift_down t 0
  end
  else t.data.(0) <- None

let pop t =
  if t.size = 0 then None
  else begin
    let prio = t.prio.(0) in
    let payload = t.data.(0) in
    remove_top t;
    match payload with Some v -> Some (prio, v) | None -> assert false
  end

let pop_exn t =
  if t.size = 0 then invalid_arg "Pqueue.pop_exn: empty";
  let payload = t.data.(0) in
  remove_top t;
  match payload with Some v -> v | None -> assert false

let clear t =
  (* Reset the payload slots so cleared entries are unreachable. *)
  Array.fill t.data 0 (Array.length t.data) None;
  t.size <- 0;
  t.next_seq <- 0
