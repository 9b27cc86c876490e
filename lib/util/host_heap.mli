(** The host process's malloc heap. *)

val retain : unit -> bool
(** Ask glibc to keep up to 256 MiB of freed memory at the top of its
    heap instead of returning it to the kernel, so that the next
    simulation reuses the pages the last one freed rather than faulting
    them back in (DESIGN.md §10). Acts once per process; later calls,
    from any domain, do nothing more. [true] under glibc; elsewhere it
    does nothing and returns [false]. *)
