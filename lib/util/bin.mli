(** Flat little-endian binary writer/reader underlying simulator
    snapshots ([warden.snap]) and recorded access streams
    ([warden.trace]). Fixed-width 64-bit words plus length-prefixed
    blobs: every structure the simulator serializes is already flat
    ints/floats/Bytes, so encoding is bulk blits with no per-element
    dispatch. See DESIGN.md §15. *)

type w
(** Growable write buffer. *)

val writer : ?capacity:int -> unit -> w
val w_u8 : w -> int -> unit
val w_int : w -> int -> unit
val w_i64 : w -> int64 -> unit
val w_float : w -> float -> unit
val w_bool : w -> bool -> unit
val w_bytes : w -> Bytes.t -> unit
val w_string : w -> string -> unit
val w_int_array : w -> int array -> unit
val w_float_array : w -> float array -> unit

val contents : w -> Bytes.t
(** Copy of the bytes written so far. *)

val length : w -> int

type r
(** Bounds-checked reader over an immutable byte buffer. *)

exception Corrupt of string
(** Raised on truncated input, bad lengths, or (one layer up) a failed
    checksum or version mismatch. *)

val reader : Bytes.t -> r
val r_u8 : r -> int
val r_int : r -> int
val r_i64 : r -> int64
val r_float : r -> float
val r_bool : r -> bool
val r_bytes : r -> Bytes.t
val r_string : r -> string
val r_int_array : r -> int array
val r_float_array : r -> float array
val r_pos : r -> int

val fork : r -> r
(** An independent reader over the same bytes, at the same position. *)

val r_left : r -> int

val corrupt : string -> 'a
(** [corrupt what] raises {!Corrupt} with a ["Bin: "] prefix. *)

val word_checksum : Bytes.t -> pos:int -> len:int -> int
(** 63-bit rolling checksum of a byte range (SplitMix64 finalizer per
    little-endian 64-bit word, then per tail byte): order-sensitive,
    cheap, and any single-word or single-byte change is caught. The
    checksum of both envelopes, [WSNP] snapshots and [WOBS] traces. *)

val write_file : string -> Bytes.t -> unit
(** Write the bytes to a file, replacing it. Raises [Sys_error]. *)

val read_file : string -> Bytes.t
(** A whole file's bytes. Raises [Sys_error] when it cannot be read. *)
