(** Byte-sector masks of a 64-byte line and the masked copy that every
    writeback and reconciliation merge performs.

    A mask has one bit per byte of the line (WARDen §6.1). The simulator
    keeps it as two 32-bit halves in immediate ints, so updating it never
    allocates; {!to_int64} and friends convert at the API edges that still
    speak [int64]. *)

val lo_of : int64 -> int
(** Bits 0-31 of a mask (bytes 0-31 of the line). *)

val hi_of : int64 -> int
(** Bits 32-63 of a mask (bytes 32-63 of the line). *)

val to_int64 : lo:int -> hi:int -> int64

val blit_masked :
  src:Bytes.t ->
  src_pos:int ->
  dst:Bytes.t ->
  dst_pos:int ->
  lo:int ->
  hi:int ->
  unit
(** Copy the bytes of the line at [src_pos] that the mask selects onto the
    line at [dst_pos]. Each 8-byte group whose mask byte is full moves as
    one word, and clean groups are skipped. *)
