open Warden_util

type t = {
  n : int;
  theta : float;
  zetan : float;
  cdf : float array;
  buckets : int; (* a power of two *)
  guide : int array;
      (* [guide.(b)]: the smallest rank whose cumulative probability
         exceeds [b / buckets]; [guide.(buckets)] is the last rank *)
}

(* About four ranks per bucket: a draw in bucket [b] searches only
   [guide.(b) .. guide.(b + 1)], which at the tail of a skewed
   distribution is a few dozen ranks and at its head is one. *)
let buckets_for n =
  let b = ref 1 in
  while !b < n / 4 do b := 2 * !b done;
  !b

(* Total inverse-CDF tables ever built (every [create], memoized or
   not): the curve-sweep memoization test pins its delta to one. *)
let built = Atomic.make 0

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if not (Float.is_finite theta) || theta < 0. then
    invalid_arg "Zipf.create: theta must be finite and non-negative";
  (* One pass accumulates the harmonic weights into the (unnormalized)
     cumulative distribution; a second normalizes. *)
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (k + 1)) theta);
    cdf.(k) <- !acc
  done;
  let zetan = !acc in
  for k = 0 to n - 1 do
    cdf.(k) <- cdf.(k) /. zetan
  done;
  (* Pin the top against floating-point drift so every u < 1 maps. *)
  cdf.(n - 1) <- 1.;
  (* The guide: one walk over the ranks. [b / buckets] is exact, since
     [buckets] is a power of two. *)
  let buckets = buckets_for n in
  let guide = Array.make (buckets + 1) (n - 1) in
  let k = ref 0 in
  for b = 0 to buckets - 1 do
    let lo = float_of_int b /. float_of_int buckets in
    while cdf.(!k) <= lo do incr k done;
    guide.(b) <- !k
  done;
  Atomic.incr built;
  { n; theta; zetan; cdf; buckets; guide }

(* One-slot memo for curve sweeps, which rebuild the same table at every
   [Config.with_cores] point (identical [~n]/[~theta]). A [t] is
   immutable after [create] and the slot is atomic, so hits are safe to
   share across pool domains. *)
let memo : t option Atomic.t = Atomic.make None

let create_memo ~n ~theta =
  match Atomic.get memo with
  | Some t when t.n = n && Float.equal t.theta theta -> t
  | _ ->
      let t = create ~n ~theta in
      Atomic.set memo (Some t);
      t

let constructions () = Atomic.get built

let n t = t.n
let theta t = t.theta

let cdf t k = t.cdf.(k)

(* The smallest rank whose cumulative probability exceeds [u]. With [b]
   the bucket of [u] ([u * buckets] is exact), [b / buckets <= u <
   (b + 1) / buckets], so that rank is at least [guide.(b)] and at most
   [guide.(b + 1)]: the binary search over that range returns what a
   search over every rank would. *)
let rank t u =
  let b = int_of_float (u *. float_of_int t.buckets) in
  let lo = ref t.guide.(b) and hi = ref t.guide.(b + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let sample t rng = rank t (Splitmix.float rng 1.0)

let pmf t k =
  if k < 0 || k >= t.n then invalid_arg "Zipf.pmf: rank out of range";
  1. /. (Float.pow (float_of_int (k + 1)) t.theta *. t.zetan)
