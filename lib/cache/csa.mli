(** Set-associative tag store for the LLC slices, sized by the lines it
    holds.

    Identical per-set semantics to {!Sa} (one LRU clock, MRU-first
    rotation on hits, first-empty-then-LRU victims with the lowest way on
    ties), over storage that grows with the resident lines rather than
    with the ways of every touched set:

    - an open-addressing index from block to entry (linear probing,
      backward-shift deletion when a victim's block leaves);
    - a dense entry array holding, per resident line, its block, payload,
      last use, way number and the next member of its set;
    - per-set metadata (filled-way count, the entry at way 0, the head of
      the set's member chain) in chunks of 32 sets, allocated on the
      first insert into any of their sets.

    Each entry keeps its way number, so a hit's rotation into way 0, the
    (set, way) order of {!iter}, and the {!save} bytes are those of
    {!Sa} in the same state. Nothing is ever removed, so a set's filled
    ways are a prefix: a fill takes the next way while the set has room,
    and only a full set scans its members for the LRU victim. A fresh
    cache holds no
    storage at all: the chunk table is allocated on the first insert,
    and the index and entry array start small and double.

    Each line carries one [int] payload (the LLC keeps a {!Linepool} slot
    there). Only the LLC's operation set is provided; private caches use
    {!Sa} directly. *)

type t

val create : sets:int -> ways:int -> t
(** [sets] must be a power of two. *)

val find : t -> int -> int
(** Hit probe with LRU refresh and MRU rotation, as {!Sa.find_way}: one
    hashed probe; returns the payload, or -1 on a miss. *)

val peek : t -> int -> int
(** The payload of a resident block, or -1; changes nothing. *)

val insert : t -> int -> int -> (int * int) option
(** As {!Sa.insert}: refresh in place on hit, else fill/evict. Returns
    the displaced [(block, payload)]: the evicted entry, or on a hit
    [(blk, old_payload)]. Materializes the chunk. *)

val copy : t -> t
(** An independent cache in the same state. *)

val iter : t -> (int -> int -> unit) -> unit
(** Resident blocks with their payloads in ascending (set, way) order.
    [f] must not insert. *)

val chunks_allocated : t -> int
(** Chunks of per-set metadata materialized so far: the 32-set chunks
    that have seen an insert (for bench and tests). *)

val chunks_total : t -> int

val save :
  t -> Warden_util.Bin.w -> elt:(Warden_util.Bin.w -> int -> unit) -> unit
(** Snapshot in {!Sa.save}'s format ({!Sa.save_ways}): the same state
    saves the same bytes. [elt] writes each payload. *)

val restore : t -> Warden_util.Bin.r -> elt:(Warden_util.Bin.r -> int) -> unit
(** Overwrite a cache of identical geometry from {!save} output,
    materializing exactly the chunks whose sets hold a line (nothing is
    ever removed, so those are the chunks allocated at save time).
    Raises [Warden_util.Bin.Corrupt], naming the fault and leaving the
    cache unchanged, on everything {!Sa.restore} refuses, filled ways
    that are not a prefix of their set, or truncated payloads. *)
