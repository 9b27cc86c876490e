(** The directory: per-block coherence state, owner and sharer set.

    Modeled as an "ideal" (unbounded) directory: entries are never evicted,
    mirroring full-map directory studies. The paper's protocol is described
    against such a directory FSA (Fig. 5).

    Stored as a flat open-addressing table (no deletion, so linear probing
    never meets a tombstone). An entry is immediate ints in parallel arrays:
    a packed state/owner/w_multi word plus the sharer set, kept as sharer
    words in one flat array — one word per slot on machines of up to 62
    cores, one word per socket beyond that (DESIGN.md §14). No hash table
    or boxed set exists on any directory path at any supported topology.
    Entries are addressed by {!slot} handles; a slot
    stays valid until the next {!entry} call that inserts a new block
    (which may rehash), and no protocol path inserts between obtaining a
    slot and using it. *)

type t

type slot = int
(** Handle to one directory entry. Do not store across insertions. *)

val no_slot : slot
(** Returned by {!find} when the block has no entry ([-1]). *)

val create :
  ?capacity:int -> sockets:int -> cores_per_socket:int -> unit -> t
(** [create ~sockets ~cores_per_socket ()] sizes the sharer words for the
    machine: one word per entry when [sockets * cores_per_socket <= 62],
    else one per socket. Raises [Invalid_argument] on a nonpositive
    geometry, and above 62 cores on more than 62 sockets or more than 62
    cores per socket. The table starts with [capacity] slots, rounded up
    to a power of two and at most 64 (the default), and grows on demand. *)

val of_config : Warden_machine.Config.t -> t
(** The machine's directory, sized to start for one LLC slice: 64 entries
    on every full-size machine, a few under the model checker. *)

val entry : t -> int -> slot
(** [entry t blk] returns the slot for block [blk], creating it in [D_I]
    if absent — a single probe either way. *)

val find : t -> int -> slot
(** Like {!entry} but without materializing absent (hence invalid)
    blocks: {!no_slot} if untracked. *)

val block : t -> slot -> int
(** The block id a slot tracks. *)

val state : t -> slot -> States.dstate
val set_state : t -> slot -> States.dstate -> unit

val owner : t -> slot -> int
(** Core id for E/M; [-1] otherwise. *)

val set_owner : t -> slot -> int -> unit

val w_multi : t -> slot -> bool
(** While in W: true once the block has ever had a second concurrent copy
    or absorbed an eviction merge. Reconciliation may only convert a sole
    holder in place ("no sharing" case, §5.2) when this is false;
    otherwise the LLC may hold merged bytes newer than the holder's fill
    base and the copy must be flushed and merged by its dirty mask. *)

val set_w_multi : t -> slot -> bool -> unit

(** Sharer set: cores holding a copy — used in S, and in W to remember
    every core granted a copy for later reconciliation. *)

val sharer_add : t -> slot -> int -> unit
val sharer_remove : t -> slot -> int -> unit
val sharer_mem : t -> slot -> int -> bool
val sharers_clear : t -> slot -> unit
val sharers_empty : t -> slot -> bool
val sharer_count : t -> slot -> int

val sharer_iter : t -> slot -> (int -> unit) -> unit
(** Ascending core id. Walks the entry's sharer words in order, skipping
    an empty word in one branch and an empty byte of a word in another. *)

val sharers : t -> slot -> int list
(** Ascending core id. *)

val set_invalid : t -> slot -> unit
(** Reset to [D_I] with no owner and no sharers. *)

val holders : t -> slot -> int list
(** All cores with a copy according to the directory: the owner in E/M, the
    sharer set in S/W, ascending. *)

val iter : t -> (int -> slot -> unit) -> unit
(** Visit every entry (including [D_I] ones) as [(blk, slot)], in
    descending slot order. [f] may change the visited entry but must not
    insert entries. *)

val copy : t -> t
(** Deep copy (fresh arrays); the model checker forks directory state
    when exploring alternative interleavings. *)

val save : t -> Warden_util.Bin.w -> unit
(** Snapshot every slot array wholesale (DESIGN.md §15). Images of
    machines up to 62 cores are byte-identical to those of the earlier
    two-array layout. *)

val restore : t -> Warden_util.Bin.r -> unit
(** Overwrite a directory created for the same geometry from {!save}
    output. Raises [Warden_util.Bin.Corrupt], naming the field and
    changing nothing, on a geometry mismatch, arrays of inconsistent
    lengths (among them every image of the earlier two-array layout above
    62 cores), a [shift] that does not index the key array, a [used] that
    is not the number of occupied slots or exceeds half the capacity, a
    key below -1, or a key its probe sequence does not reach. *)
