(** A minimal domain pool for running independent simulations in
    parallel (no external dependency; stdlib [Domain] + [Atomic] only).

    Each simulation is single-threaded host code; parallelism comes from
    running {e different} engine instances on different domains. All
    previously global simulator state is domain-local, so concurrent runs
    are isolated. *)

val default_jobs : unit -> int
(** The [WARDEN_JOBS] environment variable if set (must be ≥ 1), else
    {!Domain.recommended_domain_count}. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element, fanning work across up
    to [jobs] domains (default {!default_jobs}), and returns results in
    input order. With [jobs <= 1] (or fewer than two items) this is plain
    [List.map] on the calling domain — no domains spawned, no overhead.
    If any application raises, one of the raised exceptions is re-raised
    after all workers finish. *)
