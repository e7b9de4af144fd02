(* Compact binary XML: tokenized pre-order stream with an interned-name
   dictionary and fixed-width subtree lengths. See bxml.mli for the
   format layout. *)

exception Decode_error of string

let fail msg = raise (Decode_error msg)
let failf fmt = Printf.ksprintf fail fmt
let version = '\x01'
let magic = Printf.sprintf "\x00BX%c" version

(* Flag bits in the per-name header byte. *)
let flag_element = 0x01
let flag_has_uri = 0x02

let is_binary s =
  String.length s >= 3 && s.[0] = '\x00' && s.[1] = 'B' && s.[2] = 'X'

(* ------------------------------------------------------------------ *)
(* Encoder: a tree walk into a per-domain scratch arena                  *)
(* ------------------------------------------------------------------ *)

(* The token stream is built in a growable [Bytes.t] because element
   content lengths are backpatched: the element header reserves 4 bytes,
   the children are written, then the length goes into the reservation.
   Names are numbered in order of first use. *)
type writer = {
  mutable tok : Bytes.t;
  mutable tlen : int;
  tbl : (Name.t, int) Hashtbl.t;  (* used past [scan_limit] names only *)
  mutable names : Name.t array;
  mutable elem_used : Bytes.t; (* one flag byte per interned name *)
  mutable ncount : int;
}

let initial_tok = 1024
let scratch_cap = 1 lsl 20 (* shrink arenas bigger than 1 MiB after use *)
let no_name = Name.make ""

(* Up to this many distinct names, [name_id] finds a name by scanning
   [names]: no hashing, and nothing to reset between documents. *)
let scan_limit = 16

let make_writer () =
  {
    tok = Bytes.create initial_tok;
    tlen = 0;
    tbl = Hashtbl.create 64;
    names = Array.make 16 no_name;
    elem_used = Bytes.make 16 '\x00';
    ncount = 0;
  }

(* One arena per domain is never in use twice, for two reasons: [encode]
   is a tree walk that calls out to nothing, and no code in [lib/] or
   [bin/] runs systhreads, which could switch inside [encode] at an
   allocation and share their domain's arena (the rule in the [Http]
   header, which the [http] test suite's [test_no_systhreads] checks). *)
let scratch_key = Domain.DLS.new_key make_writer

let reset e =
  e.tlen <- 0;
  if e.ncount > 0 then begin
    if e.ncount > scan_limit then Hashtbl.reset e.tbl;
    Bytes.fill e.elem_used 0 e.ncount '\x00';
    e.ncount <- 0
  end

let ensure e n =
  if e.tlen + n > Bytes.length e.tok then begin
    let cap = ref (Bytes.length e.tok * 2) in
    while e.tlen + n > !cap do
      cap := !cap * 2
    done;
    let tok = Bytes.create !cap in
    Bytes.blit e.tok 0 tok 0 e.tlen;
    e.tok <- tok
  end

let put_u8 e b =
  ensure e 1;
  Bytes.unsafe_set e.tok e.tlen (Char.unsafe_chr (b land 0xff));
  e.tlen <- e.tlen + 1

let rec put_varint e v =
  if v < 0x80 then put_u8 e v
  else begin
    put_u8 e (0x80 lor (v land 0x7f));
    put_varint e (v lsr 7)
  end

let varint_width v =
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let put_string e s =
  let n = String.length s in
  put_varint e n;
  ensure e n;
  Bytes.blit_string s 0 e.tok e.tlen n;
  e.tlen <- e.tlen + n

(* The index of [name] among the first [n] names, or -1. Names are
   interned, so a physical match is the common hit; structural equality
   is the second pass. *)
let rec scan_same names n name i =
  if i = n then -1 else if names.(i) == name then i else scan_same names n name (i + 1)

let rec scan_equal names n name i =
  if i = n then -1
  else if Name.equal names.(i) name then i
  else scan_equal names n name (i + 1)

let scan_names names n name =
  let i = scan_same names n name 0 in
  if i >= 0 then i else scan_equal names n name 0

let find_name e name =
  if e.ncount <= scan_limit then scan_names e.names e.ncount name
  else match Hashtbl.find_opt e.tbl name with Some i -> i | None -> -1

let add_name e name =
  let i = e.ncount in
  if i = Array.length e.names then begin
    let names = Array.make (2 * i) no_name in
    Array.blit e.names 0 names 0 i;
    e.names <- names;
    let elem_used = Bytes.make (2 * i) '\x00' in
    Bytes.blit e.elem_used 0 elem_used 0 i;
    e.elem_used <- elem_used
  end;
  e.names.(i) <- name;
  (* the table takes over once the scan would pass [scan_limit] *)
  if i = scan_limit then
    for j = 0 to i do Hashtbl.add e.tbl e.names.(j) j done
  else if i > scan_limit then Hashtbl.add e.tbl name i;
  e.ncount <- i + 1;
  i

let name_id e name =
  let found = find_name e name in
  if found >= 0 then found else add_name e name

let tok_element = 0x01
let tok_text = 0x02
let tok_comment = 0x03
let tok_pi = 0x04

let set_u32 b at v =
  if v > 0xFFFFFFFF then fail "subtree too large for u32 content length";
  for i = 0 to 3 do
    Bytes.unsafe_set b (at + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

let rec tree e t =
  match t with
  | Tree.Text s ->
    put_u8 e tok_text;
    put_string e s
  | Tree.Comment s ->
    put_u8 e tok_comment;
    put_string e s
  | Tree.Pi { target; data } ->
    put_u8 e tok_pi;
    put_string e target;
    put_string e data
  | Tree.Element { name; attrs; children } ->
    let id = name_id e name in
    Bytes.set e.elem_used id '\x01';
    put_u8 e tok_element;
    put_varint e id;
    put_varint e (List.length attrs);
    attributes e attrs;
    ensure e 4;
    let at = e.tlen in
    e.tlen <- at + 4;
    forest e children;
    set_u32 e.tok at (e.tlen - at - 4)

and attributes e = function
  | [] -> ()
  | { Tree.attr_name; attr_value } :: rest ->
    put_varint e (name_id e attr_name);
    put_string e attr_value;
    attributes e rest

and forest e = function
  | [] -> ()
  | t :: rest ->
    tree e t;
    forest e rest

let header_size names n =
  let size = ref (varint_width n) in
  for i = 0 to n - 1 do
    let local = String.length (Name.local names.(i)) and uri = String.length (Name.uri names.(i)) in
    size := !size + 1 + varint_width local + local;
    if uri > 0 then size := !size + varint_width uri + uri
  done;
  !size

(* Writers into the result of [finish], returning the next offset. *)
let rec out_varint out pos v =
  if v < 0x80 then begin
    Bytes.unsafe_set out pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.unsafe_set out pos (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    out_varint out (pos + 1) (v lsr 7)
  end

let out_string out pos s =
  let n = String.length s in
  let pos = out_varint out pos n in
  Bytes.blit_string s 0 out pos n;
  pos + n

(* Magic and name table for the first [n] of [names], [elem_used] holding
   each one's element flag: [header_size names n] bytes from offset 0. *)
let out_header out names n elem_used =
  Bytes.blit_string magic 0 out 0 (String.length magic);
  let pos = ref (out_varint out (String.length magic) n) in
  for i = 0 to n - 1 do
    let uri = Name.uri names.(i) in
    Bytes.unsafe_set out !pos
      (Char.unsafe_chr
         ((if Bytes.get elem_used i <> '\x00' then flag_element else 0)
         lor if uri <> "" then flag_has_uri else 0));
    pos := out_string out (!pos + 1) (Name.local names.(i));
    if uri <> "" then pos := out_string out !pos uri
  done;
  !pos

(* The payload is laid out in one allocation: magic, name header, body
   length, then the token stream copied from the arena. An oversized
   arena is released after an unusually large message, so one outlier
   doesn't pin memory for the domain's lifetime. *)
let encode t =
  let e = Domain.DLS.get scratch_key in
  reset e;
  tree e t;
  let blen = e.tlen in
  let hlen = String.length magic + header_size e.names e.ncount in
  let out = Bytes.create (hlen + varint_width blen + blen) in
  let pos = out_varint out (out_header out e.names e.ncount e.elem_used) blen in
  Bytes.blit e.tok 0 out pos blen;
  if Bytes.length e.tok > scratch_cap then e.tok <- Bytes.create initial_tok;
  Bytes.unsafe_to_string out

(* ------------------------------------------------------------------ *)
(* Byte programs: payloads whose shape is known before their text       *)
(* ------------------------------------------------------------------ *)

module Program = struct
  type op =
    | Static of string  (* token bytes written verbatim *)
    | Attr_gap of int  (* an attribute value: varint length, bytes *)
    | Text_gap of int  (* a text token, or nothing for [no_text] *)
    | Content of op array  (* an element's content, behind its u32 length *)

  type t = {
    header : string;
    ops : op array;
    static_size : int;  (* the body's bytes outside the gaps *)
    text_gaps : bool array;  (* per gap: a text token, else an attribute value *)
  }

  type builder = {
    pending : writer;  (* static bytes not yet in an op, in [tok] *)
    mutable ops : op list;  (* the innermost open content, reversed *)
    mutable parents : op list list;
    mutable left : int;  (* attributes the open element still declares *)
    mutable elements : int list;  (* name indices used as element names *)
    mutable gaps : (int * bool) list;  (* gap index, text gap *)
  }

  let no_text = String.make 1 '\x00'

  let builder () =
    { pending = make_writer (); ops = []; parents = []; left = 0; elements = []; gaps = [] }

  let flush b =
    if b.pending.tlen > 0 then begin
      b.ops <- Static (Bytes.sub_string b.pending.tok 0 b.pending.tlen) :: b.ops;
      b.pending.tlen <- 0
    end

  let push b op =
    flush b;
    b.ops <- op :: b.ops

  let open_content b =
    flush b;
    b.parents <- b.ops :: b.parents;
    b.ops <- []

  let start_element b id ~attrs =
    b.elements <- id :: b.elements;
    put_u8 b.pending tok_element;
    put_varint b.pending id;
    put_varint b.pending attrs;
    if attrs = 0 then open_content b else b.left <- attrs

  let attribute_done b =
    b.left <- b.left - 1;
    if b.left = 0 then open_content b

  let attribute b id value =
    put_varint b.pending id;
    put_string b.pending value;
    attribute_done b

  let attribute_gap b id g =
    put_varint b.pending id;
    push b (Attr_gap g);
    b.gaps <- (g, false) :: b.gaps;
    attribute_done b

  let text b s =
    put_u8 b.pending tok_text;
    put_string b.pending s

  let text_gap b g =
    push b (Text_gap g);
    b.gaps <- (g, true) :: b.gaps

  let end_element b =
    flush b;
    match b.parents with
    | parent :: rest ->
      b.ops <- Content (Array.of_list (List.rev b.ops)) :: parent;
      b.parents <- rest
    | [] -> invalid_arg "Bxml.Program.end_element: no open element"

  let build b names =
    flush b;
    if b.parents <> [] then invalid_arg "Bxml.Program.build: an element is open";
    let n = Array.length names in
    let used = Bytes.make n '\x00' in
    List.iter (fun id -> Bytes.set used id '\x01') b.elements;
    let out = Bytes.create (String.length magic + header_size names n) in
    ignore (out_header out names n used);
    let rec static_size ops =
      Array.fold_left
        (fun size op ->
          size
          +
          match op with
          | Static s -> String.length s
          | Attr_gap _ | Text_gap _ -> 0
          | Content c -> 4 + static_size c)
        0 ops
    in
    let ops = Array.of_list (List.rev b.ops) in
    let text_gaps = Array.make (List.fold_left (fun n (g, _) -> max n (g + 1)) 0 b.gaps) false in
    List.iter (fun (g, text) -> text_gaps.(g) <- text) b.gaps;
    { header = Bytes.unsafe_to_string out; ops; static_size = static_size ops; text_gaps }

  let gaps (p : t) = Array.length p.text_gaps

  let field_size s =
    let n = String.length s in
    varint_width n + n

  (* Short strings are copied a byte at a time: cheaper than a call to
     [memmove] for the few bytes of a tag or a field. *)
  let copy s out pos =
    let n = String.length s in
    if n > 16 then Bytes.blit_string s 0 out pos n
    else
      for i = 0 to n - 1 do
        Bytes.unsafe_set out (pos + i) (String.unsafe_get s i)
      done;
    pos + n

  let body_size p gaps =
    let size = ref p.static_size in
    for g = 0 to Array.length p.text_gaps - 1 do
      let s = Array.unsafe_get gaps g in
      if not (Array.unsafe_get p.text_gaps g) then size := !size + field_size s
      else if s != no_text then size := !size + 1 + field_size s
    done;
    !size

  let rec out_ops out pos ops gaps =
    let pos = ref pos in
    for i = 0 to Array.length ops - 1 do
      pos :=
        match Array.unsafe_get ops i with
        | Static s -> copy s out !pos
        | Attr_gap g ->
          let s = Array.unsafe_get gaps g in
          copy s out (out_varint out !pos (String.length s))
        | Text_gap g ->
          let s = Array.unsafe_get gaps g in
          if s == no_text then !pos
          else begin
            Bytes.unsafe_set out !pos (Char.unsafe_chr tok_text);
            copy s out (out_varint out (!pos + 1) (String.length s))
          end
        | Content c ->
          let at = !pos in
          let next = out_ops out (at + 4) c gaps in
          set_u32 out at (next - at - 4);
          next
    done;
    !pos

  let render (p : t) gaps =
    if Array.length gaps < Array.length p.text_gaps then
      invalid_arg "Bxml.Program.render: missing gaps";
    let blen = body_size p gaps in
    let hlen = String.length p.header in
    let out = Bytes.create (hlen + varint_width blen + blen) in
    Bytes.blit_string p.header 0 out 0 hlen;
    ignore (out_ops out (out_varint out hlen blen) p.ops gaps);
    Bytes.unsafe_to_string out
end

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)
(* ------------------------------------------------------------------ *)

type rd = { s : string; mutable pos : int }

let u8 r limit =
  if r.pos >= limit then fail "truncated payload";
  let b = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  b

let varint r limit =
  let rec go shift acc =
    if shift > 56 then fail "varint too long";
    let b = u8 r limit in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else go (shift + 7) acc
  in
  go 0 0

let read_str r limit =
  let n = varint r limit in
  if n < 0 || n > limit - r.pos then fail "string length out of bounds";
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let skip_str r limit =
  let n = varint r limit in
  if n < 0 || n > limit - r.pos then fail "string length out of bounds";
  r.pos <- r.pos + n

let u32 r limit =
  if limit - r.pos < 4 then fail "truncated u32";
  let v = Int32.to_int (String.get_int32_le r.s r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let check_magic s =
  if not (is_binary s) then fail "not a binary XML payload";
  if String.length s < 4 then fail "truncated magic";
  if s.[3] <> version then failf "unsupported binary XML version %d" (Char.code s.[3])

(* Header pass shared by the decoders: [on_name flags local uri_opt]. *)
let read_header r limit ~keep on_name =
  let count = varint r limit in
  if count > limit - r.pos then fail "name count out of bounds";
  for i = 0 to count - 1 do
    let flags = u8 r limit in
    if keep flags then begin
      let local = read_str r limit in
      let uri = if flags land flag_has_uri <> 0 then Some (read_str r limit) else None in
      on_name i flags local uri
    end
    else begin
      skip_str r limit;
      if flags land flag_has_uri <> 0 then skip_str r limit
    end
  done;
  count

let body_limit r =
  let total = String.length r.s in
  let blen = varint r total in
  if blen > total - r.pos then fail "truncated token stream";
  if r.pos + blen <> total then fail "trailing bytes after token stream";
  total

let name_table r limit =
  let names = ref [||] in
  let n =
    read_header r limit ~keep:(fun _ -> true) (fun i _ local uri ->
        if i = 0 then names := Array.make (max 1 16) no_name;
        if i >= Array.length !names then begin
          let bigger = Array.make (2 * Array.length !names) no_name in
          Array.blit !names 0 bigger 0 (Array.length !names);
          names := bigger
        end;
        !names.(i) <- (match uri with Some uri -> Name.intern ~uri local | None -> Name.intern local))
  in
  (!names, n)

let name_at names n idx =
  if idx < 0 || idx >= n then failf "name index %d out of range" idx;
  names.(idx)

let rec decode_seq r names n limit acc =
  if r.pos >= limit then List.rev acc
  else begin
    let t = decode_tree r names n limit in
    decode_seq r names n limit (t :: acc)
  end

and decode_tree r names n limit =
  match u8 r limit with
  | 0x01 ->
    let name = name_at names n (varint r limit) in
    let nattrs = varint r limit in
    if nattrs > limit - r.pos then fail "attribute count out of bounds";
    let attrs = decode_attrs r names n limit nattrs [] in
    let clen = u32 r limit in
    let cend = r.pos + clen in
    if cend > limit then fail "subtree length out of bounds";
    let children = decode_seq r names n cend [] in
    if r.pos <> cend then fail "subtree underrun";
    Tree.Element { name; attrs; children }
  | 0x02 -> Tree.Text (read_str r limit)
  | 0x03 -> Tree.Comment (read_str r limit)
  | 0x04 ->
    let target = read_str r limit in
    let data = read_str r limit in
    Tree.Pi { target; data }
  | t -> failf "unknown token 0x%02x" t

and decode_attrs r names n limit k acc =
  if k = 0 then List.rev acc
  else begin
    let attr_name = name_at names n (varint r limit) in
    let attr_value = read_str r limit in
    decode_attrs r names n limit (k - 1) ({ Tree.attr_name; attr_value } :: acc)
  end

let decode s =
  check_magic s;
  let r = { s; pos = 4 } in
  let names, n = name_table r (String.length s) in
  let limit = body_limit r in
  let t = decode_tree r names n limit in
  if r.pos <> limit then fail "trailing tokens after root";
  t

let decode_any s = if is_binary s then decode s else Parser.parse s

(* ------------------------------------------------------------------ *)
(* Header reader: no tree construction                                 *)
(* ------------------------------------------------------------------ *)

let synopsis s =
  check_magic s;
  let r = { s; pos = 4 } in
  let acc = ref [] in
  ignore
    (read_header r (String.length s)
       ~keep:(fun flags -> flags land flag_element <> 0)
       (fun _ _ local _ -> acc := local :: !acc));
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

(* Skip the name, attribute block and content length of the element
   whose tag byte was just consumed, checking every name index against
   the [n] names of the header: the content length. *)
let skip_element_header r n limit =
  let idx = varint r limit in
  if idx >= n then failf "name index %d out of range" idx;
  let nattrs = varint r limit in
  if nattrs > limit - r.pos then fail "attribute count out of bounds";
  for _ = 1 to nattrs do
    let aidx = varint r limit in
    if aidx >= n then failf "name index %d out of range" aidx;
    skip_str r limit
  done;
  let clen = u32 r limit in
  if clen > limit - r.pos then fail "subtree length out of bounds";
  clen

let check s =
  match
    check_magic s;
    let r = { s; pos = 4 } in
    let n = read_header r (String.length s) ~keep:(fun _ -> false) (fun _ _ _ _ -> ()) in
    let limit = body_limit r in
    (* Walk every token once, tracking the stack of enclosing subtree
       end offsets so lengths are checked to nest exactly. *)
    let stack = ref [] in
    let roots = ref 0 in
    while r.pos < limit do
      if !stack = [] then incr roots;
      (match u8 r limit with
      | 0x01 ->
        let clen = skip_element_header r n limit in
        let cend = r.pos + clen in
        let enclosing = match !stack with e :: _ -> e | [] -> limit in
        if cend > enclosing then fail "subtree length out of bounds";
        if clen > 0 then stack := cend :: !stack
      | 0x02 | 0x03 -> skip_str r limit
      | 0x04 ->
        skip_str r limit;
        skip_str r limit
      | t -> failf "unknown token 0x%02x" t);
      let rec pop () =
        match !stack with
        | e :: rest when r.pos = e ->
          stack := rest;
          pop ()
        | e :: _ when r.pos > e -> fail "token overruns enclosing subtree"
        | _ -> ()
      in
      pop ()
    done;
    if !stack <> [] then fail "truncated subtree";
    if !roots <> 1 then failf "expected one root token, found %d" !roots
  with
  | () -> Ok ()
  | exception Decode_error msg -> Error msg

let validate s = match check s with Ok () -> true | Error _ -> false
