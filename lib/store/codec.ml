(* Binary record (de)serialization helpers used by the WAL and snapshots.
   Integers are fixed 8-byte little-endian; strings are length-prefixed. *)

(* The growable byte writer the WAL, the extra blob and snapshots encode
   into: each field makes one capacity check and writes in place, and
   the bytes can be read ([bytes]) without a copy. *)
module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create n = { buf = Bytes.create (max 16 n); len = 0 }
  let clear w = w.len <- 0
  let length w = w.len
  let bytes w = w.buf
  let contents w = Bytes.sub_string w.buf 0 w.len

  (* Drop storage grown past [keep] bytes, so one outsized record does not
     pin its buffer for the writer's lifetime. *)
  let shrink w ~keep = if Bytes.length w.buf > keep then w.buf <- Bytes.create keep

  let grow w n =
    let cap = ref (2 * Bytes.length w.buf) in
    while w.len + n > !cap do
      cap := 2 * !cap
    done;
    let buf = Bytes.create !cap in
    Bytes.blit w.buf 0 buf 0 w.len;
    w.buf <- buf

  let[@inline] ensure w n = if w.len + n > Bytes.length w.buf then grow w n

  let char w c =
    ensure w 1;
    Bytes.unsafe_set w.buf w.len c;
    w.len <- w.len + 1

  let int w i =
    ensure w 8;
    Bytes.set_int64_le w.buf w.len (Int64.of_int i);
    w.len <- w.len + 8

  let string w s =
    let n = String.length s in
    ensure w (8 + n);
    Bytes.set_int64_le w.buf w.len (Int64.of_int n);
    Bytes.unsafe_blit_string s 0 w.buf (w.len + 8) n;
    w.len <- w.len + 8 + n

  let bool w b = char w (if b then '\001' else '\000')

  let list w put items =
    int w (List.length items);
    List.iter (put w) items

  let set_int w at i = Bytes.set_int64_le w.buf at (Int64.of_int i)
end

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

let skip_string r =
  let n = get_int r in
  if n < 0 || n > r.limit - r.pos then raise (Decode_error "truncated string");
  r.pos <- r.pos + n

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
