exception Parse_error of { line : int; col : int; msg : string }

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  preserve_space : bool;
  scratch : Buffer.t;
      (* shared accumulator for attribute values that contain entity
         references; attributes never nest, so one buffer suffices *)
}

let xml_ns = "http://www.w3.org/XML/1998/namespace"

let error st msg = raise (Parse_error { line = st.line; col = st.col; msg })
let at_end st = st.pos >= String.length st.src
let peek st = if at_end st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  if not (at_end st) then begin
    (if st.src.[st.pos] = '\n' then begin
       st.line <- st.line + 1;
       st.col <- 1
     end
     else st.col <- st.col + 1);
    st.pos <- st.pos + 1
  end

let expect st c =
  if peek st = c then advance st
  else error st (Printf.sprintf "expected %C, found %C" c (peek st))

let expect_string st s =
  String.iter (fun c -> expect st c) s

(* Allocation-free prefix test: this runs once per content character in
   [parse_content], so the obvious [String.sub] formulation dominated
   the parser's allocation profile. *)
let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src
  &&
  let rec eq i =
    i = n || (String.unsafe_get st.src (st.pos + i) = String.unsafe_get s i && eq (i + 1))
  in
  eq 0

let skip_string st s =
  if looking_at st s then begin
    for _ = 1 to String.length s do advance st done;
    true
  end
  else false

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while (not (at_end st)) && is_space (peek st) do advance st done

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* A raw (possibly prefixed) name, before namespace resolution. *)
let read_raw_name st =
  if not (is_name_start (peek st)) then
    error st (Printf.sprintf "expected a name, found %C" (peek st));
  let start = st.pos in
  while (not (at_end st)) && (is_name_char (peek st) || peek st = ':') do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let split_prefix raw =
  match String.index_opt raw ':' with
  | Some i ->
    ( String.sub raw 0 i,
      String.sub raw (i + 1) (String.length raw - i - 1) )
  | None -> ("", raw)

(* UTF-8 encode a code point for numeric character references. *)
let utf8_encode buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let read_entity st buf =
  expect st '&';
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' in
    if hex then advance st;
    let start = st.pos in
    while peek st <> ';' && not (at_end st) do advance st done;
    let digits = String.sub st.src start (st.pos - start) in
    expect st ';';
    let cp =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with _ -> error st ("bad character reference: " ^ digits)
    in
    utf8_encode buf cp
  end
  else begin
    let name = read_raw_name st in
    expect st ';';
    match name with
    | "lt" -> Buffer.add_char buf '<'
    | "gt" -> Buffer.add_char buf '>'
    | "amp" -> Buffer.add_char buf '&'
    | "quot" -> Buffer.add_char buf '"'
    | "apos" -> Buffer.add_char buf '\''
    | _ -> error st ("unknown entity: &" ^ name ^ ";")
  end

let read_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then error st "expected attribute value";
  advance st;
  (* Fast path: scan to the closing quote and slice, one allocation.
     Only values containing an entity reference fall back to the shared
     scratch buffer. *)
  let start = st.pos in
  while (not (at_end st)) && peek st <> quote && peek st <> '&' do
    advance st
  done;
  if at_end st then error st "unterminated attribute value";
  if peek st = quote then begin
    let v = String.sub st.src start (st.pos - start) in
    advance st;
    v
  end
  else begin
    let buf = st.scratch in
    Buffer.clear buf;
    Buffer.add_substring buf st.src start (st.pos - start);
    let rec go () =
      if at_end st then error st "unterminated attribute value"
      else if peek st = quote then advance st
      else if peek st = '&' then begin
        read_entity st buf;
        go ()
      end
      else begin
        let start = st.pos in
        while
          (not (at_end st)) && peek st <> quote && peek st <> '&'
        do
          advance st
        done;
        Buffer.add_substring buf st.src start (st.pos - start);
        go ()
      end
    in
    go ();
    Buffer.contents buf
  end

(* Namespace environment: prefix -> uri bindings; innermost first. The
   [xml] prefix is bound once, in the root environment every top-level
   entry point starts from: binding it per element would grow the list
   with depth, and every unprefixed name lookup walks that list. *)
let root_env = [ ("xml", xml_ns) ]

let resolve_elem_name st env raw =
  let prefix, local = split_prefix raw in
  match List.assoc_opt prefix env with
  | Some uri -> Name.intern ~uri local
  | None ->
    if prefix = "" then Name.intern local
    else error st ("unbound namespace prefix: " ^ prefix)

let resolve_attr_name st env raw =
  let prefix, local = split_prefix raw in
  (* Unprefixed attributes are in no namespace, regardless of defaults. *)
  if prefix = "" then Name.intern local
  else
    match List.assoc_opt prefix env with
    | Some uri -> Name.intern ~uri local
    | None -> error st ("unbound namespace prefix: " ^ prefix)

let skip_comment st =
  expect_string st "<!--";
  let start = st.pos in
  let rec go () =
    if at_end st then error st "unterminated comment"
    else if looking_at st "-->" then begin
      let s = String.sub st.src start (st.pos - start) in
      ignore (skip_string st "-->");
      s
    end
    else begin
      advance st;
      go ()
    end
  in
  go ()

let read_pi st =
  expect_string st "<?";
  let target = read_raw_name st in
  skip_space st;
  let start = st.pos in
  let rec go () =
    if at_end st then error st "unterminated processing instruction"
    else if looking_at st "?>" then begin
      let s = String.sub st.src start (st.pos - start) in
      ignore (skip_string st "?>");
      s
    end
    else begin
      advance st;
      go ()
    end
  in
  let data = go () in
  (target, data)

let read_cdata st =
  expect_string st "<![CDATA[";
  let start = st.pos in
  let rec go () =
    if at_end st then error st "unterminated CDATA section"
    else if looking_at st "]]>" then begin
      let s = String.sub st.src start (st.pos - start) in
      ignore (skip_string st "]]>");
      s
    end
    else begin
      advance st;
      go ()
    end
  in
  go ()

let skip_doctype st =
  expect_string st "<!DOCTYPE";
  let depth = ref 1 in
  while !depth > 0 && not (at_end st) do
    (match peek st with
     | '<' -> incr depth
     | '>' -> decr depth
     | _ -> ());
    advance st
  done

let is_all_space s =
  let ok = ref true in
  String.iter (fun c -> if not (is_space c) then ok := false) s;
  !ok

let rec parse_element st env =
  expect st '<';
  let raw = read_raw_name st in
  (* First pass over attributes to collect namespace declarations. *)
  let raw_attrs = ref [] in
  let env = ref env in
  let rec attrs () =
    skip_space st;
    match peek st with
    | '>' | '/' -> ()
    | _ ->
      let araw = read_raw_name st in
      skip_space st;
      expect st '=';
      skip_space st;
      let v = read_attr_value st in
      (match split_prefix araw with
       | "", "xmlns" -> env := ("", v) :: !env
       | "xmlns", "xml" -> ()  (* fixed to [xml_ns]; never rebound *)
       | "xmlns", p -> env := (p, v) :: !env
       | _ -> raw_attrs := (araw, v) :: !raw_attrs);
      attrs ()
  in
  attrs ();
  let env = !env in
  let name = resolve_elem_name st env raw in
  let attrs =
    List.rev_map
      (fun (araw, v) ->
        { Tree.attr_name = resolve_attr_name st env araw; attr_value = v })
      !raw_attrs
  in
  if skip_string st "/>" then Tree.Element { name; attrs; children = [] }
  else begin
    expect st '>';
    let children = parse_content st env in
    expect_string st "</";
    let close = read_raw_name st in
    if close <> raw then
      error st (Printf.sprintf "mismatched end tag: expected </%s>, got </%s>" raw close);
    skip_space st;
    expect st '>';
    Tree.Element { name; attrs; children }
  end

and parse_content st env =
  let acc = ref [] in
  (* Text accumulation avoids a per-element buffer: the common case — one
     contiguous run with no entities or CDATA — is kept as a single
     zero-copy slice in [pending]; only a second piece (or an entity)
     promotes to a buffer. *)
  let pending = ref "" in
  let buf = ref None in
  let add_piece s =
    match !buf with
    | Some b -> Buffer.add_string b s
    | None ->
      if !pending = "" then pending := s
      else begin
        let b = Buffer.create (String.length !pending + String.length s + 16) in
        Buffer.add_string b !pending;
        Buffer.add_string b s;
        pending := "";
        buf := Some b
      end
  in
  let promote () =
    match !buf with
    | Some b -> b
    | None ->
      let b = Buffer.create 32 in
      Buffer.add_string b !pending;
      pending := "";
      buf := Some b;
      b
  in
  let flush_text () =
    let s =
      match !buf with
      | Some b ->
        let s = Buffer.contents b in
        buf := None;
        s
      | None ->
        let s = !pending in
        pending := "";
        s
    in
    if s <> "" && (st.preserve_space || not (is_all_space s)) then
      acc := Tree.Text s :: !acc
  in
  let rec go () =
    if at_end st then error st "unexpected end of input inside element"
    else if looking_at st "</" then flush_text ()
    else if looking_at st "<![CDATA[" then begin
      add_piece (read_cdata st);
      go ()
    end
    else if looking_at st "<!--" then begin
      flush_text ();
      acc := Tree.Comment (skip_comment st) :: !acc;
      go ()
    end
    else if looking_at st "<?" then begin
      flush_text ();
      let target, data = read_pi st in
      acc := Tree.Pi { target; data } :: !acc;
      go ()
    end
    else if peek st = '<' then begin
      flush_text ();
      acc := parse_element st env :: !acc;
      go ()
    end
    else if peek st = '&' then begin
      read_entity st (promote ());
      go ()
    end
    else begin
      let start = st.pos in
      while
        (not (at_end st)) && peek st <> '<' && peek st <> '&'
      do
        advance st
      done;
      add_piece (String.sub st.src start (st.pos - start));
      go ()
    end
  in
  go ();
  List.rev !acc

let parse_prolog st =
  skip_space st;
  if looking_at st "<?xml" && (is_space (st.src.[st.pos + 5]) || peek2 st = '?')
  then ignore (read_pi st);
  let rec misc () =
    skip_space st;
    if looking_at st "<!--" then begin
      ignore (skip_comment st);
      misc ()
    end
    else if looking_at st "<!DOCTYPE" then begin
      skip_doctype st;
      misc ()
    end
    else if looking_at st "<?" && not (looking_at st "<?xml") then begin
      ignore (read_pi st);
      misc ()
    end
  in
  misc ()

let make_state preserve_space src =
  { src; pos = 0; line = 1; col = 1; preserve_space; scratch = Buffer.create 64 }

let parse ?(preserve_space = false) src =
  let st = make_state preserve_space src in
  parse_prolog st;
  if peek st <> '<' then error st "expected document element";
  let root = parse_element st root_env in
  skip_space st;
  (* Allow trailing comments / PIs after the root. *)
  let rec trailer () =
    skip_space st;
    if looking_at st "<!--" then begin
      ignore (skip_comment st);
      trailer ()
    end
    else if looking_at st "<?" then begin
      ignore (read_pi st);
      trailer ()
    end
    else if not (at_end st) then error st "content after document element"
  in
  trailer ();
  root

(* Batch form for the ingress path: a body holding several concatenated
   documents is parsed in one pass with one shared parser state, so
   buffer setup is amortized across the batch. *)
let parse_many ?(preserve_space = false) src =
  let st = make_state preserve_space src in
  parse_prolog st;
  if peek st <> '<' then error st "expected document element";
  let docs = ref [] in
  let rec misc () =
    skip_space st;
    if looking_at st "<!--" then begin
      ignore (skip_comment st);
      misc ()
    end
    else if looking_at st "<?" then begin
      ignore (read_pi st);
      misc ()
    end
  in
  let rec go () =
    docs := parse_element st root_env :: !docs;
    misc ();
    if not (at_end st) then
      if peek st = '<' then go () else error st "content after document element"
  in
  go ();
  List.rev !docs

let parse_result ?preserve_space src =
  match parse ?preserve_space src with
  | t -> Ok t
  | exception Parse_error { line; col; msg } ->
    Error (Printf.sprintf "XML parse error at %d:%d: %s" line col msg)
