(** Chunked set-associative cache for the LLC slices.

    Identical per-set semantics to {!Sa} (one LRU clock, MRU-first
    rotation on hits, first-empty-then-LRU victims), but the backing
    arrays are split into fixed-size chunks of sets allocated on first
    insert. Probing an unallocated chunk is a miss — exactly what the
    eager arrays would answer — so simulated results are bit-identical
    while engine construction stops paying for hundreds of megabytes of
    ways the run never touches (the 512-core machines have ~20M LLC
    ways), and a sparse working set stays host-cache resident.

    Each way carries one [int] payload (the LLC keeps a {!Linepool} slot
    there). Only the LLC's operation set is provided; private caches use
    {!Sa} directly. *)

type t

val create : sets:int -> ways:int -> t
(** [sets] must be a power of two. *)

val find : t -> int -> int
(** Hit probe with LRU refresh and MRU rotation, as {!Sa.find_way};
    returns the payload, or -1 on a miss. *)

val insert : t -> int -> int -> (int * int) option
(** As {!Sa.insert}: refresh in place on hit, else fill/evict. Returns
    the displaced [(block, payload)]: the evicted entry, or on a hit
    [(blk, old_payload)]. Materializes the chunk. *)

val iter : t -> (int -> int -> unit) -> unit
(** Resident blocks in ascending (set, way) order. *)

val chunks_allocated : t -> int
(** Chunks materialized so far (the lazy-allocation story, for bench and
    tests). *)

val chunks_total : t -> int

val save :
  t -> Warden_util.Bin.w -> elt:(Warden_util.Bin.w -> int -> unit) -> unit
(** Snapshot only the materialized chunks (tags, recency, resident
    payloads) plus the LRU clock. *)

val restore : t -> Warden_util.Bin.r -> elt:(Warden_util.Bin.r -> int) -> unit
(** Overwrite a cache of identical geometry from {!save} output,
    re-materializing exactly the chunks that were allocated at save time
    (unallocated chunks stay misses). Raises [Warden_util.Bin.Corrupt]
    on a geometry mismatch. *)
