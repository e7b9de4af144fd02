(* Binary record (de)serialization helpers used by the WAL and snapshots.
   Integers are fixed 8-byte little-endian; strings are length-prefixed. *)

(* The bytes of [Bytes.set_int64_le (Int64.of_int i)] without the
   scratch [Bytes]: [asr] sign-extends, so byte 7 carries the sign bit
   the 63-bit int lacks. *)
let put_int buf i =
  Buffer.add_char buf (Char.unsafe_chr (i land 0xFF));
  Buffer.add_char buf (Char.unsafe_chr ((i asr 8) land 0xFF));
  Buffer.add_char buf (Char.unsafe_chr ((i asr 16) land 0xFF));
  Buffer.add_char buf (Char.unsafe_chr ((i asr 24) land 0xFF));
  Buffer.add_char buf (Char.unsafe_chr ((i asr 32) land 0xFF));
  Buffer.add_char buf (Char.unsafe_chr ((i asr 40) land 0xFF));
  Buffer.add_char buf (Char.unsafe_chr ((i asr 48) land 0xFF));
  Buffer.add_char buf (Char.unsafe_chr ((i asr 56) land 0xFF))

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let put_list buf put items =
  put_int buf (List.length items);
  List.iter (put buf) items

type reader = { src : string; mutable pos : int; limit : int }

exception Decode_error of string

let reader ?(pos = 0) ?len src =
  let limit = match len with Some n -> pos + n | None -> String.length src in
  if pos < 0 || limit < pos || limit > String.length src then
    invalid_arg "Codec.reader";
  { src; pos; limit }

let get_int r =
  if r.pos + 8 > r.limit then raise (Decode_error "truncated int");
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let get_string r =
  let n = get_int r in
  if n < 0 || n > r.limit - r.pos then raise (Decode_error "truncated string");
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let get_char r =
  if r.pos >= r.limit then raise (Decode_error "truncated char");
  let c = r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_bool r = get_char r <> '\000'

let get_list r get =
  let n = get_int r in
  List.init n (fun _ -> get r)

let at_end r = r.pos >= r.limit
