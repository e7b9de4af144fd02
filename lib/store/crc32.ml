(* CRC-32 (IEEE 802.3 polynomial), slicing-by-8. Used to detect torn or
   corrupted records in the write-ahead log.

   [tables] holds eight 256-entry tables back to back: table 0 is the
   classic bytewise table, and table k advances a byte's contribution by
   k further zero bytes, so one lookup per byte of an 8-byte block folds
   the whole block into the register at once (Intel's slicing-by-8). *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let sub ?(init = 0xFFFFFFFF) s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Crc32.sub";
  (* every table index below stays in range only while the register
     holds 32 bits *)
  let c = ref (init land 0xFFFFFFFF) in
  let byte i = Char.code (String.unsafe_get s i) in
  let tab i = Array.unsafe_get tables i in
  let i = ref off in
  let last_block = off + len - 8 in
  while !i <= last_block do
    let p = !i in
    let lo =
      !c
      lxor (byte p lor (byte (p + 1) lsl 8) lor (byte (p + 2) lsl 16)
           lor (byte (p + 3) lsl 24))
    in
    c :=
      tab (0x700 + (lo land 0xFF))
      lxor tab (0x600 + ((lo lsr 8) land 0xFF))
      lxor tab (0x500 + ((lo lsr 16) land 0xFF))
      lxor tab (0x400 + (lo lsr 24))
      lxor tab (0x300 + byte (p + 4))
      lxor tab (0x200 + byte (p + 5))
      lxor tab (0x100 + byte (p + 6))
      lxor tab (byte (p + 7));
    i := p + 8
  done;
  for p = !i to off + len - 1 do
    c := tab ((!c lxor byte p) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string ?init s = sub ?init s 0 (String.length s)
