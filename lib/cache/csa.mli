(** Chunked set-associative cache for the LLC slices.

    Identical per-set semantics to {!Sa} (one LRU clock, MRU-first
    rotation on hits, first-empty-then-LRU victims), but the backing
    arrays are split into fixed-size chunks of sets allocated on first
    insert. Probing an unallocated chunk is a miss — exactly what the
    eager arrays would answer — so simulated results are bit-identical
    while engine construction stops paying for hundreds of megabytes of
    ways the run never touches (the 512-core machines have ~20M LLC
    ways), and a sparse working set stays host-cache resident.

    Only the LLC's operation set is provided; private caches use {!Sa}
    directly. *)

type 'a t

val create : sets:int -> ways:int -> dummy:'a -> 'a t
(** [sets] must be a power of two. [dummy] fills absent ways. *)

val sets : 'a t -> int
val ways : 'a t -> int
val set_index : 'a t -> int -> int

val find : 'a t -> int -> 'a option
(** Hit probe with LRU refresh and MRU rotation, as {!Sa.find}. *)

val insert : 'a t -> int -> 'a -> (int * 'a) option
(** As {!Sa.insert}: refresh in place on hit, else fill/evict and return
    the displaced [(block, payload)]. Materializes the chunk. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Resident blocks in ascending (set, way) order. *)

val population : 'a t -> int

val chunks_allocated : 'a t -> int
(** Chunks materialized so far (the lazy-allocation story, for bench and
    tests). *)

val chunks_total : 'a t -> int

val save : 'a t -> Warden_util.Bin.w -> elt:(Warden_util.Bin.w -> 'a -> unit) -> unit
(** Snapshot only the materialized chunks (tags, recency, resident
    payloads) plus the LRU clock. *)

val restore : 'a t -> Warden_util.Bin.r -> elt:(Warden_util.Bin.r -> 'a) -> unit
(** Overwrite a cache of identical geometry from {!save} output,
    re-materializing exactly the chunks that were allocated at save time
    (unallocated chunks stay misses). Raises [Warden_util.Bin.Corrupt]
    on a geometry mismatch. *)
