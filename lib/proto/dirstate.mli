(** The directory: per-block coherence state, owner and sharer set.

    Modeled as an "ideal" (unbounded) directory: entries are never evicted,
    mirroring full-map directory studies. The paper's protocol is described
    against such a directory FSA (Fig. 5).

    Stored as a flat open-addressing table (no deletion, so linear probing
    never meets a tombstone). An entry is immediate ints in parallel arrays:
    a packed state/owner/w_multi word plus the sharer set, which is a plain
    core bitmask on machines of up to 62 cores and a two-level
    socket-hierarchical scheme beyond that — a coarse socket-presence word
    per slot plus per-socket fine words in a parallel flat array (DESIGN.md
    §14). No hash table or boxed set exists on any directory path at any
    supported topology. Entries are addressed by {!slot} handles; a slot
    stays valid until the next {!entry} call that inserts a new block
    (which may rehash), and no protocol path inserts between obtaining a
    slot and using it. *)

type t

type slot = int
(** Handle to one directory entry. Do not store across insertions. *)

val no_slot : slot
(** Returned by {!find} when the block has no entry ([-1]). *)

val create : sockets:int -> cores_per_socket:int -> unit -> t
(** [create ~sockets ~cores_per_socket ()] sizes the sharer layout for the
    machine: one flat word per entry when [sockets * cores_per_socket <=
    62], else the hierarchical coarse/fine layout. Raises [Invalid_argument]
    beyond 62 sockets or 62 cores per socket — no supported topology needs
    a third level. *)

val hierarchical : t -> bool
(** True when the two-level layout is active (more than 62 cores). *)

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
(** Ascending core id. In the hierarchical layout this walks the coarse
    socket mask and visits only non-empty sockets, so the cost of an
    invalidation sweep scales with the sockets that actually hold copies,
    not the machine size. *)

val sharers : t -> slot -> int list
(** Ascending core id. *)

val set_invalid : t -> slot -> unit
(** Reset to [D_I] with no owner and no sharers. *)

val holders : t -> slot -> int list
(** All cores with a copy according to the directory: the owner in E/M, the
    sharer set in S/W, ascending. *)

val iter : t -> (int -> slot -> unit) -> unit
(** Visit every entry (including [D_I] ones) as [(blk, slot)]. Must not
    insert entries during iteration. *)

val copy : t -> t
(** Deep copy (fresh arrays, both levels); the model checker forks
    directory state when exploring alternative interleavings. *)

val save : t -> Warden_util.Bin.w -> unit
(** Snapshot every slot array wholesale — both flat and hierarchical
    sharer layouts are plain int arrays (DESIGN.md §15). *)

val restore : t -> Warden_util.Bin.r -> unit
(** Overwrite a directory created for the same geometry from {!save}
    output. Raises [Warden_util.Bin.Corrupt] on a geometry mismatch. *)
