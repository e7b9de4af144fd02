(** Binary record (de)serialization helpers used by the WAL and snapshots.

    Integers are fixed 8-byte little-endian; strings are length-prefixed;
    lists are count-prefixed. Decoding is bounds-checked and raises
    {!Decode_error} on truncation, never reads out of range. *)

(** The growable byte writer every record is encoded with. Each field
    is one capacity check and an in-place write ({!Writer.int} writes the
    8 bytes of [Bytes.set_int64_le (Int64.of_int i)]), and {!bytes}
    exposes the written bytes without a copy: the WAL checksums and
    writes a record straight from it. *)
module Writer : sig
  type t

  val create : int -> t
  (** An empty writer with room for [n] bytes before it grows. *)

  val clear : t -> unit
  val length : t -> int

  val bytes : t -> Bytes.t
  (** The storage; its first {!length} bytes are the written ones. Valid
      until the next write, which may reallocate it. *)

  val contents : t -> string
  (** A copy of the written bytes. *)

  val shrink : t -> keep:int -> unit
  (** Replace storage larger than [keep] bytes by [keep] fresh ones,
      discarding what was written. *)

  val char : t -> char -> unit
  val int : t -> int -> unit
  val string : t -> string -> unit
  val bool : t -> bool -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit

  val set_int : t -> int -> int -> unit
  (** [set_int w at i] overwrites the 8 bytes at offset [at] (already
      written) with [i], as {!int} would have written them. *)
end

type reader

exception Decode_error of string

val reader : ?pos:int -> ?len:int -> string -> reader
(** A reader over the [len] bytes of the string from [pos] (default: all
    of it), decoding in place. No read goes past [pos + len]: a value
    that would extend beyond it raises {!Decode_error}, even when the
    string holds more bytes.
    @raise Invalid_argument if the range is not within the string. *)

val get_int : reader -> int
val get_string : reader -> string
val skip_string : reader -> unit
(** Steps over a length-prefixed string without copying it. *)

val get_char : reader -> char
val get_bool : reader -> bool
val get_list : reader -> (reader -> 'a) -> 'a list
val at_end : reader -> bool
