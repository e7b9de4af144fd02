(** Binary record (de)serialization helpers used by the WAL and snapshots.

    Integers are fixed 8-byte little-endian; strings are length-prefixed;
    lists are count-prefixed. Decoding is bounds-checked and raises
    {!Decode_error} on truncation, never reads out of range. *)

val put_int : Buffer.t -> int -> unit
(** Appends the 8 bytes of [Bytes.set_int64_le (Int64.of_int i)],
    allocating nothing. *)

val put_string : Buffer.t -> string -> unit
val put_bool : Buffer.t -> bool -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

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
val get_char : reader -> char
val get_bool : reader -> bool
val get_list : reader -> (reader -> 'a) -> 'a list
val at_end : reader -> bool
