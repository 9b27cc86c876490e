(* One flat int array, six ints per record: code, cycle, core, blk, arg,
   seq. *)

let stride = 6

type t = {
  buf : int array;
  cap : int; (* records *)
  mutable head : int; (* record index of the oldest record *)
  mutable len : int;
}

let create ~capacity =
  let cap = max 0 capacity in
  { buf = Array.make (cap * stride) 0; cap; head = 0; len = 0 }

let push t ~code ~cycle ~core ~blk ~arg ~seq =
  if t.len >= t.cap then false
  else begin
    let i = t.head + t.len in
    let i = if i >= t.cap then i - t.cap else i in
    let o = i * stride in
    let b = t.buf in
    Array.unsafe_set b o code;
    Array.unsafe_set b (o + 1) cycle;
    Array.unsafe_set b (o + 2) core;
    Array.unsafe_set b (o + 3) blk;
    Array.unsafe_set b (o + 4) arg;
    Array.unsafe_set b (o + 5) seq;
    t.len <- t.len + 1;
    true
  end

let length t = t.len

let drain t f =
  for k = 0 to t.len - 1 do
    let i = t.head + k in
    let i = if i >= t.cap then i - t.cap else i in
    let o = i * stride in
    let b = t.buf in
    f ~code:(Array.unsafe_get b o)
      ~cycle:(Array.unsafe_get b (o + 1))
      ~core:(Array.unsafe_get b (o + 2))
      ~blk:(Array.unsafe_get b (o + 3))
      ~arg:(Array.unsafe_get b (o + 4))
      ~seq:(Array.unsafe_get b (o + 5))
  done;
  t.head <- 0;
  t.len <- 0
