(* The engine's turns run in constant host stack. Every transition of a
   run (start a body, perform a pending operation and continue, suspend,
   fork, hand off, finish) starts the next fiber as its last call, so a
   run of any length keeps no frame per switch. This program runs over a
   million scheduled switches, forks and hand-offs included, and the
   runtest rule runs it under OCAMLRUNPARAM=l=4k, a 32 KiB stack limit: a
   transition that stops being a tail call (a [try], a [Fun.protect], one
   more statement after a [continue]) raises [Stack_overflow] here. *)

open Warden_machine
open Warden_sim
open Warden_runtime

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

(* A Par fib: every fork parks a fiber, and a stolen child's last
   finisher hands off to it. *)
let rec fib_par n =
  if n < 2 then begin
    Par.tick 2;
    n
  end
  else begin
    let a, b = Par.par2 (fun () -> fib_par (n - 1)) (fun () -> fib_par (n - 2)) in
    Par.tick 2;
    a + b
  end

let () =
  (* Every access suspends, so each is a switch. *)
  let cfg = Config.dual_socket () in
  let eng = Engine.create cfg ~proto:`Warden in
  let n = 24 in
  let v, rs = Par.run eng (fun () -> fib_par n) in
  let s = Memsys.sstats (Engine.memsys eng) in
  let switches = s.Sstats.loads + s.Sstats.stores + s.Sstats.rmws in
  Printf.printf "fib %d = %d: %d scheduled accesses, %d forks, %d steals\n" n v
    switches rs.Par.forks rs.Par.steals;
  if v <> fib_seq n then failwith "wrong fib value";
  if Config.num_threads cfg <> 24 then failwith "expected 24 threads";
  if switches < 1_000_000 then failwith "fewer than 1M scheduled switches";
  if rs.Par.steals = 0 then failwith "no steal, so no hand-off"
