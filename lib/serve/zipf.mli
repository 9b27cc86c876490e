(** Bounded Zipfian rank sampler: rank [k] (0-based) is drawn with
    probability proportional to [1 / (k+1)^theta].

    [create] pays one O(n) pass to precompute the exact cumulative
    distribution and a guide table from quantiles to ranks; [sample]
    inverts it with an allocation-free binary search over the few ranks
    the guide leaves — exact to the pmf (unlike
    the YCSB closed-form approximation, whose head-rank bias would be
    visible at the generator's scale). The sampler is a pure function
    of its parameters and the supplied generator state, so request
    streams are reproducible bit-for-bit from a seed. *)

type t

val create : n:int -> theta:float -> t
(** [create ~n ~theta] prepares a sampler over ranks [0 .. n-1] with
    skew [theta >= 0.]; [theta = 0.] degenerates to uniform and the
    classical [theta = 1.] needs no special-casing. Raises
    [Invalid_argument] if [n <= 0] or [theta] is negative or not
    finite. *)

val create_memo : n:int -> theta:float -> t
(** Like {!create}, but a one-slot memo keyed on [(n, theta)]: curve
    sweeps rebuild the identical table at every [Config.with_cores]
    point, and a sampler is immutable after construction, so repeat
    points share one table (safe across pool domains — the slot is
    atomic). A parameter change rebuilds and replaces the slot. *)

val constructions : unit -> int
(** Total inverse-CDF tables built by this process so far (every
    {!create}, memoized or not) — lets tests assert that a sweep of
    identical-parameter points builds exactly one. *)

val n : t -> int
val theta : t -> float

val sample : t -> Warden_util.Splitmix.t -> int
(** Draw a rank in [0 .. n-1]; rank 0 is the most popular. Advances the
    generator by exactly one [float] draw. *)

val rank : t -> float -> int
(** [rank t u] is the smallest rank whose cumulative probability exceeds
    [u], for [0. <= u < 1.]: the inversion {!sample} applies to one
    uniform draw. *)

val cdf : t -> int -> float
(** The cumulative probability of ranks [0 .. k], as {!rank} compares it
    (the last rank's is exactly [1.]). *)

val pmf : t -> int -> float
(** Exact probability of rank [k] under the distribution —
    [1 / ((k+1)^theta * zeta(n, theta))] — for distribution tests. *)
