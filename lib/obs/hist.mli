(** Log2-bucketed value histograms, one per event class.

    Bucket [b] covers values in [[2^b, 2^(b+1))] (bucket 0 covers
    [[0, 2)]); values beyond the last bucket saturate into it. Updates
    are flat-array increments, so recording a value is allocation-free
    and cheap enough for the per-access hot path. *)

type t

val nbuckets : int
(** Buckets per class (32: values up to [2^31] keep full resolution). *)

val create : classes:int -> t

val add : t -> cls:int -> int -> unit
(** Record one value for a class. *)

val set : t -> cls:int -> value:int -> count:int -> unit
(** Replace a class's samples with [count] samples of [value]: the
    histogram of a class whose every value is the same constant. *)

val bucket_of : int -> int
(** The bucket a value lands in. *)

val get : t -> cls:int -> bucket:int -> int
val count : t -> cls:int -> int
val sum : t -> cls:int -> int

val mean : t -> cls:int -> float
(** Mean recorded value, or 0 when the class is empty. *)

val percentile : t -> cls:int -> float -> float
(** [percentile t ~cls p] estimates the [p]-th percentile ([0. <= p <=
    100.], else [Invalid_argument]) of a class's recorded values by
    linear interpolation within the covering log2 bucket. Returns [0.]
    for an empty class. The estimate is bounded below by the covering
    bucket's lower edge and above by its upper edge, so the relative
    error never exceeds the bucket width — sufficient for p50/p95/p99
    tail reporting. *)

val render : t -> cls:int -> title:string -> string
(** ASCII histogram of a class's non-empty buckets (empty string when the
    class has no samples). *)
