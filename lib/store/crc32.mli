(** CRC-32 (IEEE 802.3 polynomial), table-driven (slicing-by-8).

    Used to detect torn or corrupted records in the write-ahead log.
    [string "123456789"] is [0xCBF43926], the standard check value. *)

val sub : ?init:int -> string -> int -> int -> int
(** [sub s off len] is the CRC of the [len] bytes of [s] starting at
    [off], computed in place (no copy). [init] is the 32-bit register to
    start from (default [0xFFFFFFFF]); bits above 32 are ignored. Passing
    [init = crc lxor 0xFFFFFFFF] continues a CRC [crc] over further bytes.
    @raise Invalid_argument if the range is not within [s]. *)

val string : ?init:int -> string -> int
(** [string s] is [sub s 0 (String.length s)]. *)
