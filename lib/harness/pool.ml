(* A dependency-free domain pool for fanning independent simulations
   across cores. Simulator state that used to be global (heap registry,
   scheduler slot, trace hooks, engine slot) is domain-local, so runs on
   different domains cannot interfere; results come back in input order. *)

let default_jobs () =
  match Sys.getenv_opt "WARDEN_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> invalid_arg "WARDEN_JOBS: expected a positive integer")
  | None -> Domain.recommended_domain_count ()

type 'b outcome = Done of 'b | Failed of exn | Pending

let map ?jobs f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let items = Array.of_list xs in
  let n = Array.length items in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
             (match f items.(i) with
             | y -> Done y
             | exception e -> Failed e));
          go ()
        end
      in
      go ()
    in
    let workers =
      Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker)
    in
    (* The calling domain is a worker too. *)
    worker ();
    Array.iter Domain.join workers;
    Array.to_list
      (Array.map
         (function
           | Done y -> y
           | Failed e -> raise e
           | Pending -> assert false)
         results)
  end
