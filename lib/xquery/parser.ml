exception Syntax_error of { pos : int; msg : string }

type state = { src : string; mutable pos : int }

let state_of_string src = { src; pos = 0 }
let state_pos st = st.pos
let fail st fmt =
  Format.kasprintf (fun msg -> raise (Syntax_error { pos = st.pos; msg })) fmt

let len st = String.length st.src
let at_end st = st.pos >= len st
let cur st = if at_end st then '\000' else st.src.[st.pos]
let char_at st i = if i >= len st then '\000' else st.src.[i]

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let is_digit c = c >= '0' && c <= '9'

(* The text that [&ent;] stands for: a predefined entity or a character
   reference, in a string literal or a constructor alike. *)
let entity_text st ent =
  match ent with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ when String.length ent > 0 && ent.[0] = '#' -> (
    match Demaq_xml.Parser.char_ref (String.sub ent 1 (String.length ent - 1)) with
    | s -> s
    | exception Demaq_xml.Parser.Parse_error { msg; _ } -> fail st "%s" msg)
  | _ -> fail st "unknown entity &%s;" ent

(* Skip whitespace and (possibly nested) XQuery comments. *)
let rec skip_ws st =
  if not (at_end st) then
    if is_space (cur st) then begin
      st.pos <- st.pos + 1;
      skip_ws st
    end
    else if cur st = '(' && char_at st (st.pos + 1) = ':' then begin
      st.pos <- st.pos + 2;
      let depth = ref 1 in
      while !depth > 0 do
        if at_end st then fail st "unterminated comment"
        else if cur st = '(' && char_at st (st.pos + 1) = ':' then begin
          incr depth;
          st.pos <- st.pos + 2
        end
        else if cur st = ':' && char_at st (st.pos + 1) = ')' then begin
          decr depth;
          st.pos <- st.pos + 2
        end
        else st.pos <- st.pos + 1
      done;
      skip_ws st
    end

let at_eof st =
  skip_ws st;
  at_end st

(* ---- tokens ---- *)

type token =
  | Tname of string  (* QName, possibly prefixed; also keywords *)
  | Tstring of string
  | Tint of int
  | Tdec of float
  | Tsym of string
  | Teof

(* Scan one token starting at [st.pos] (after whitespace); returns the token
   and the position just past it, without committing. *)
let scan st =
  skip_ws st;
  let p = st.pos in
  if p >= len st then (Teof, p)
  else
    let c = st.src.[p] in
    if is_name_start c then begin
      let i = ref p in
      while !i < len st && is_name_char st.src.[!i] do incr i done;
      (* QName: allow one ':' followed by an NCName (but not '::'). *)
      let i =
        if !i < len st && st.src.[!i] = ':' && !i + 1 < len st
           && is_name_start st.src.[!i + 1]
           && char_at st (!i + 1) <> ':'
        then begin
          incr i;
          while !i < len st && is_name_char st.src.[!i] do incr i done;
          !i
        end
        else !i
      in
      (Tname (String.sub st.src p (i - p)), i)
    end
    else if is_digit c || (c = '.' && is_digit (char_at st (p + 1))) then begin
      let i = ref p in
      while !i < len st && is_digit st.src.[!i] do incr i done;
      let is_dec = ref false in
      if !i < len st && st.src.[!i] = '.' && is_digit (char_at st (!i + 1)) then begin
        is_dec := true;
        incr i;
        while !i < len st && is_digit st.src.[!i] do incr i done
      end
      else if !i < len st && st.src.[!i] = '.' && not (is_name_char (char_at st (!i + 1)))
              && char_at st (!i + 1) <> '.' then begin
        (* trailing dot as in "1." *)
        is_dec := true;
        incr i
      end;
      (* An exponent marker only counts when digits actually follow;
         otherwise "1e" in "1enqueue" would lex as a malformed number. *)
      (if !i < len st && (st.src.[!i] = 'e' || st.src.[!i] = 'E') then begin
         let j = !i + 1 in
         let j = if j < len st && (st.src.[j] = '+' || st.src.[j] = '-') then j + 1 else j in
         if j < len st && is_digit st.src.[j] then begin
           is_dec := true;
           i := j;
           while !i < len st && is_digit st.src.[!i] do incr i done
         end
       end);
      let text = String.sub st.src p (!i - p) in
      (match
         if !is_dec then Option.map (fun f -> Tdec f) (float_of_string_opt text)
         else Option.map (fun n -> Tint n) (int_of_string_opt text)
       with
       | Some tok -> (tok, !i)
       | None -> fail st "malformed numeric literal: %s" text)
    end
    else if c = '"' || c = '\'' then begin
      let quote = c in
      let buf = Buffer.create 16 in
      let i = ref (p + 1) in
      let rec go () =
        if !i >= len st then fail st "unterminated string literal"
        else if st.src.[!i] = quote then
          if char_at st (!i + 1) = quote then begin
            Buffer.add_char buf quote;
            i := !i + 2;
            go ()
          end
          else incr i
        else if st.src.[!i] = '&' then begin
          (* [&#x10FFFF;] is the longest reference without leading zeros *)
          let semi =
            match String.index_from_opt st.src !i ';' with
            | Some s when s - !i <= 9 -> s
            | _ -> fail st "bad entity reference in string literal"
          in
          Buffer.add_string buf (entity_text st (String.sub st.src (!i + 1) (semi - !i - 1)));
          i := semi + 1;
          go ()
        end
        else begin
          Buffer.add_char buf st.src.[!i];
          incr i;
          go ()
        end
      in
      go ();
      (Tstring (Buffer.contents buf), !i)
    end
    else
      let two = if p + 1 < len st then String.sub st.src p 2 else "" in
      match two with
      | "//" | "!=" | "<=" | ">=" | ":=" | ".." | "::" | "<<" | ">>" ->
        (Tsym two, p + 2)
      | _ -> (
        match c with
        | '(' | ')' | '[' | ']' | '{' | '}' | ',' | '$' | '/' | '@' | '.' | '*'
        | '+' | '-' | '=' | '<' | '>' | '|' | '?' ->
          (Tsym (String.make 1 c), p + 1)
        | c -> fail st "unexpected character %C" c)

let peek st =
  let tok, _ = scan st in
  tok

(* Peek at the token after the current one. *)
let peek2 st =
  let _, p1 = scan st in
  let save = st.pos in
  st.pos <- p1;
  let tok, _ = scan st in
  st.pos <- save;
  tok

let advance st =
  let tok, p = scan st in
  st.pos <- p;
  tok

let expect_sym st s =
  match advance st with
  | Tsym s' when s' = s -> ()
  | tok ->
    fail st "expected %s, found %s" s
      (match tok with
       | Tname n -> n
       | Tsym s -> s
       | Tstring _ -> "string literal"
       | Tint _ | Tdec _ -> "number"
       | Teof -> "end of input")

let expect_name st =
  match advance st with
  | Tname n -> n
  | _ -> fail st "expected a name"

let expect_keyword st kw =
  match advance st with
  | Tname n when n = kw -> ()
  | _ -> fail st "expected keyword '%s'" kw

let accept_sym st s =
  match peek st with
  | Tsym s' when s' = s ->
    ignore (advance st);
    true
  | _ -> false

let accept_keyword st kw =
  match peek st with
  | Tname n when n = kw ->
    ignore (advance st);
    true
  | _ -> false

(* Does a direct element constructor start at the current position?
   True when the next raw character is '<' immediately followed by a name
   start character (tag) — only called at expression-start positions. *)
let at_constructor st =
  skip_ws st;
  cur st = '<' && is_name_start (char_at st (st.pos + 1))

open Ast

(* ---- expression grammar ---- *)

let rec parse_expr st =
  let e = parse_expr_single st in
  if accept_sym st "," then
    let rec rest acc =
      let e = parse_expr_single st in
      if accept_sym st "," then rest (e :: acc) else List.rev (e :: acc)
    in
    Sequence (rest [ e ])
  else e

and parse_expr_single st =
  match peek st with
  | Tname ("for" | "let") when peek2 st = Tsym "$" -> parse_flwor st
  | Tname ("some" | "every") when peek2 st = Tsym "$" -> parse_quantified st
  | Tname "if" when peek2 st = Tsym "(" -> parse_if st
  | Tname "do" when (match peek2 st with
                     | Tname ("enqueue" | "reset") -> true
                     | _ -> false) ->
    parse_update st
  | _ -> parse_or st

and parse_flwor st =
  let rec clauses acc =
    match peek st with
    | Tname "for" when peek2 st = Tsym "$" ->
      ignore (advance st);
      clauses (For (parse_for_bindings st) :: acc)
    | Tname "let" when peek2 st = Tsym "$" ->
      ignore (advance st);
      clauses (Let (parse_bindings st ":=") :: acc)
    | _ -> List.rev acc
  in
  let binds = clauses [] in
  let binds =
    if accept_keyword st "where" then binds @ [ Where (parse_expr_single st) ]
    else binds
  in
  let binds =
    let stable = peek st = Tname "stable" && peek2 st = Tname "order" in
    if stable then ignore (advance st);
    if accept_keyword st "order" then begin
      expect_keyword st "by";
      let rec keys acc =
        let e = parse_expr_single st in
        let dir =
          if accept_keyword st "descending" then `Desc
          else begin
            ignore (accept_keyword st "ascending");
            `Asc
          end
        in
        let empty_policy =
          if accept_keyword st "empty" then
            if accept_keyword st "greatest" then `Empty_greatest
            else begin
              expect_keyword st "least";
              `Empty_least
            end
          else `Empty_least
        in
        if accept_sym st "," then keys ((e, dir, empty_policy) :: acc)
        else List.rev ((e, dir, empty_policy) :: acc)
      in
      binds @ [ Order_by (keys []) ]
    end
    else if stable then fail st "expected 'order by' after 'stable'"
    else binds
  in
  expect_keyword st "return";
  Flwor (binds, parse_expr_single st)

and parse_for_bindings st =
  (* $v (at $p)? in Expr ("," $v (at $p)? in Expr)* *)
  let one () =
    expect_sym st "$";
    let v = expect_name st in
    let pos_var =
      if accept_keyword st "at" then begin
        expect_sym st "$";
        Some (expect_name st)
      end
      else None
    in
    expect_keyword st "in";
    let e = parse_expr_single st in
    (v, pos_var, e)
  in
  let rec go acc =
    let b = one () in
    if peek st = Tsym "," && peek2 st = Tsym "$" then begin
      ignore (advance st);
      go (b :: acc)
    end
    else List.rev (b :: acc)
  in
  go []

and parse_bindings st sep =
  (* $v <sep> Expr ("," $v <sep> Expr)* where sep is "in" or ":=". *)
  let one () =
    expect_sym st "$";
    let v = expect_name st in
    (if sep = ":=" then expect_sym st ":=" else expect_keyword st sep);
    let e = parse_expr_single st in
    (v, e)
  in
  let rec go acc =
    let b = one () in
    if peek st = Tsym "," && peek2 st = Tsym "$" then begin
      ignore (advance st);
      go (b :: acc)
    end
    else List.rev (b :: acc)
  in
  go []

and parse_quantified st =
  let q = match expect_name st with "some" -> `Some | _ -> `Every in
  let binds = parse_bindings st "in" in
  expect_keyword st "satisfies";
  Quantified (q, binds, parse_expr_single st)

and parse_if st =
  expect_keyword st "if";
  expect_sym st "(";
  let cond = parse_expr st in
  expect_sym st ")";
  expect_keyword st "then";
  let t = parse_expr_single st in
  let e = if accept_keyword st "else" then parse_expr_single st else Empty_seq in
  If (cond, t, e)

and parse_update st =
  expect_keyword st "do";
  match expect_name st with
  | "enqueue" ->
    let payload = parse_expr_single st in
    expect_keyword st "into";
    let queue = expect_name st in
    let rec props acc =
      if accept_keyword st "with" then begin
        let name = expect_name st in
        expect_keyword st "value";
        let e = parse_expr_single st in
        props ((name, e) :: acc)
      end
      else List.rev acc
    in
    Enqueue { payload; queue; props = props [] }
  | "reset" ->
    if accept_keyword st "slicing" then begin
      let slicing = expect_name st in
      expect_keyword st "key";
      let key = parse_expr_single st in
      Reset (Some (slicing, key))
    end
    else Reset None
  | other -> fail st "unknown update primitive: do %s" other

and parse_or st =
  let e = parse_and st in
  if accept_keyword st "or" then Binary (Or, e, parse_or st) else e

and parse_and st =
  let e = parse_comparison st in
  if accept_keyword st "and" then Binary (And, e, parse_and st) else e

and parse_comparison st =
  let e = parse_range st in
  let cmp =
    match peek st with
    | Tsym "=" -> Some (Gen_cmp `Eq)
    | Tsym "!=" -> Some (Gen_cmp `Ne)
    | Tsym "<" -> Some (Gen_cmp `Lt)
    | Tsym "<=" -> Some (Gen_cmp `Le)
    | Tsym ">" -> Some (Gen_cmp `Gt)
    | Tsym ">=" -> Some (Gen_cmp `Ge)
    | Tname "eq" -> Some (Val_cmp `Eq)
    | Tname "ne" -> Some (Val_cmp `Ne)
    | Tname "lt" -> Some (Val_cmp `Lt)
    | Tname "le" -> Some (Val_cmp `Le)
    | Tname "gt" -> Some (Val_cmp `Gt)
    | Tname "ge" -> Some (Val_cmp `Ge)
    | Tname "is" -> Some (Node_cmp `Is)
    | Tsym "<<" -> Some (Node_cmp `Precedes)
    | Tsym ">>" -> Some (Node_cmp `Follows)
    | _ -> None
  in
  match cmp with
  | None -> e
  | Some op ->
    ignore (advance st);
    Binary (op, e, parse_range st)

and parse_range st =
  let e = parse_additive st in
  if accept_keyword st "to" then Range (e, parse_additive st) else e

and parse_additive st =
  let rec go e =
    match peek st with
    | Tsym "+" ->
      ignore (advance st);
      go (Binary (Add, e, parse_multiplicative st))
    | Tsym "-" ->
      ignore (advance st);
      go (Binary (Sub, e, parse_multiplicative st))
    | _ -> e
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go e =
    match peek st with
    | Tsym "*" ->
      ignore (advance st);
      go (Binary (Mul, e, parse_union st))
    | Tname "div" ->
      ignore (advance st);
      go (Binary (Div, e, parse_union st))
    | Tname "idiv" ->
      ignore (advance st);
      go (Binary (Idiv, e, parse_union st))
    | Tname "mod" ->
      ignore (advance st);
      go (Binary (Mod, e, parse_union st))
    | _ -> e
  in
  go (parse_union st)

and parse_union st =
  let rec go e =
    if accept_sym st "|" || accept_keyword st "union" then
      go (Binary (Union, e, parse_intersect st))
    else e
  in
  go (parse_intersect st)

and parse_intersect st =
  let rec go e =
    if accept_keyword st "intersect" then go (Binary (Intersect, e, parse_instance st))
    else if accept_keyword st "except" then go (Binary (Except, e, parse_instance st))
    else e
  in
  go (parse_instance st)

and parse_instance st =
  let e = parse_treat st in
  if peek st = Tname "instance" then begin
    ignore (advance st);
    expect_keyword st "of";
    Instance_of (e, parse_sequence_type st)
  end
  else e

and parse_treat st =
  let e = parse_cast_level st in
  if peek st = Tname "treat" then begin
    ignore (advance st);
    expect_keyword st "as";
    Treat_as (e, parse_sequence_type st)
  end
  else e

and parse_sequence_type st =
  let name = expect_name st in
  let kind_test () =
    expect_sym st "(";
    let arg = match peek st with
      | Tname n -> ignore (advance st); Some n
      | Tsym "*" -> ignore (advance st); None
      | _ -> None
    in
    expect_sym st ")";
    arg
  in
  if name = "empty-sequence" then begin
    expect_sym st "(";
    expect_sym st ")";
    St_empty
  end
  else begin
    let item =
      match name with
      | "item" -> ignore (kind_test ()); It_item
      | "node" -> ignore (kind_test ()); It_node
      | "text" -> ignore (kind_test ()); It_text
      | "document-node" -> ignore (kind_test ()); It_document
      | "element" -> It_element (kind_test ())
      | "attribute" -> It_attribute (kind_test ())
      | "xs:untypedAtomic" -> It_untyped
      | "xs:anyAtomicType" -> It_anyatomic
      | tyname -> (
        match Value.atomic_type_of_string tyname with
        | Ok ty -> It_atomic ty
        | Error msg -> fail st "%s" msg)
    in
    let occ =
      if accept_sym st "?" then `Optional
      else if accept_sym st "*" then `Star
      else if accept_sym st "+" then `Plus
      else `One
    in
    St (item, occ)
  end

and parse_cast_level st =
  let e = parse_unary st in
  let kind =
    if peek st = Tname "castable" then Some `Castable
    else if peek st = Tname "cast" then Some `Cast
    else None
  in
  match kind with
  | None -> e
  | Some k ->
    ignore (advance st);
    expect_keyword st "as";
    let tyname = expect_name st in
    ignore (accept_sym st "?");
    (match Value.atomic_type_of_string tyname with
     | Ok ty -> Cast (e, ty, k)
     | Error msg -> fail st "%s" msg)

and parse_unary st =
  if accept_sym st "-" then Neg (parse_unary st)
  else if accept_sym st "+" then parse_unary st
  else parse_path st

and parse_path st =
  (* Leading "/" or "//". *)
  match peek st with
  | Tsym "/" ->
    ignore (advance st);
    if starts_step st then parse_relative st Root else Root
  | Tsym "//" ->
    ignore (advance st);
    let e = Path (Root, Axis_step (Descendant_or_self, Node_kind_test, [])) in
    let step = parse_step st in
    parse_relative_rest st (Path (e, step))
  | _ ->
    let step = parse_step st in
    parse_relative_rest st step

and parse_relative st base =
  let step = parse_step st in
  parse_relative_rest st (Path (base, step))

and parse_relative_rest st e =
  match peek st with
  | Tsym "/" ->
    ignore (advance st);
    parse_relative st e
  | Tsym "//" ->
    ignore (advance st);
    let e = Path (e, Axis_step (Descendant_or_self, Node_kind_test, [])) in
    parse_relative st e
  | _ -> e

and starts_step st =
  if at_constructor st then true
  else
    match peek st with
    | Tname _ | Tstring _ | Tint _ | Tdec _ -> true
    | Tsym ("@" | "." | ".." | "$" | "(" | "*") -> true
    | _ -> false

and parse_step st =
  if at_constructor st then begin
    skip_ws st;
    st.pos <- st.pos + 1 (* consume '<' *);
    let d = parse_direct_element st in
    with_predicates st (Direct_elem d)
  end
  else
    match peek st with
    | Tsym "@" ->
      ignore (advance st);
      let test = parse_node_test st in
      Axis_step (Attribute, test, parse_predicates st)
    | Tsym ".." ->
      ignore (advance st);
      Axis_step (Parent, Node_kind_test, parse_predicates st)
    | Tsym "." ->
      ignore (advance st);
      with_predicates st Context_item
    | Tsym "$" ->
      ignore (advance st);
      let v = expect_name st in
      with_predicates st (Var v)
    | Tsym "(" ->
      ignore (advance st);
      let e = if peek st = Tsym ")" then Empty_seq else parse_expr st in
      expect_sym st ")";
      with_predicates st e
    | Tsym "*" ->
      ignore (advance st);
      Axis_step (Child, Wildcard, parse_predicates st)
    | Tstring s ->
      ignore (advance st);
      with_predicates st (Literal (Value.String s))
    | Tint i ->
      ignore (advance st);
      with_predicates st (Literal (Value.Integer i))
    | Tdec f ->
      ignore (advance st);
      with_predicates st (Literal (Value.Decimal f))
    | Tname ("element" | "attribute" | "text" as ctor)
      when (match peek2 st with
            | Tsym "{" -> true
            | Tname _ when ctor <> "text" -> peek3_is_brace st
            | _ -> false) ->
      parse_computed_constructor st ctor
    | Tname name -> (
      match peek2 st with
      | Tsym "::" -> parse_full_axis_step st
      | Tsym "(" when name = "text" || name = "node" || name = "comment" ->
        ignore (advance st);
        expect_sym st "(";
        expect_sym st ")";
        let test =
          match name with
          | "text" -> Text_test
          | "comment" -> Comment_test
          | _ -> Node_kind_test
        in
        Axis_step (Child, test, parse_predicates st)
      | Tsym "(" ->
        ignore (advance st);
        expect_sym st "(";
        let args =
          if peek st = Tsym ")" then []
          else
            let rec go acc =
              let e = parse_expr_single st in
              if accept_sym st "," then go (e :: acc) else List.rev (e :: acc)
            in
            go []
        in
        expect_sym st ")";
        with_predicates st (Call (name, args))
      | _ ->
        ignore (advance st);
        Axis_step (Child, Name_test (local_of name), parse_predicates st))
    | tok ->
      fail st "unexpected token %s"
        (match tok with
         | Tsym s -> s
         | Teof -> "end of input"
         | _ -> "?")

(* Is the token after the next one a "{"? Used to recognize the
   [element name {content}] computed-constructor form. *)
and peek3_is_brace st =
  let save = st.pos in
  ignore (advance st);
  ignore (advance st);
  let result = peek st = Tsym "{" in
  st.pos <- save;
  result

and parse_computed_constructor st ctor =
  ignore (advance st);
  let name_expr =
    if ctor = "text" then Empty_seq
    else if accept_sym st "{" then begin
      let e = parse_expr st in
      expect_sym st "}";
      e
    end
    else Literal (Value.String (expect_name st))
  in
  expect_sym st "{";
  let content = if peek st = Tsym "}" then Empty_seq else parse_expr st in
  expect_sym st "}";
  let e =
    match ctor with
    | "element" -> Computed_elem (name_expr, content)
    | "attribute" -> Computed_attr (name_expr, content)
    | _ -> Computed_text content
  in
  with_predicates st e

and parse_full_axis_step st =
  let axis_name = expect_name st in
  expect_sym st "::";
  let axis =
    match axis_name with
    | "child" -> Child
    | "descendant" -> Descendant
    | "descendant-or-self" -> Descendant_or_self
    | "self" -> Self
    | "parent" -> Parent
    | "attribute" -> Attribute
    | a -> fail st "unsupported axis: %s" a
  in
  let test = parse_node_test st in
  Axis_step (axis, test, parse_predicates st)

and parse_node_test st =
  match advance st with
  | Tsym "*" -> Wildcard
  | Tname ("text" | "node" | "comment" as k) when peek st = Tsym "(" ->
    expect_sym st "(";
    expect_sym st ")";
    (match k with
     | "text" -> Text_test
     | "comment" -> Comment_test
     | _ -> Node_kind_test)
  | Tname n -> Name_test (local_of n)
  | _ -> fail st "expected a node test"

and local_of qname =
  match String.index_opt qname ':' with
  | Some i -> String.sub qname (i + 1) (String.length qname - i - 1)
  | None -> qname

and parse_predicates st =
  let rec go acc =
    if accept_sym st "[" then begin
      let e = parse_expr st in
      expect_sym st "]";
      go (e :: acc)
    end
    else List.rev acc
  in
  go []

and with_predicates st e =
  match parse_predicates st with [] -> e | preds -> Filter (e, preds)

(* ---- direct element constructors (raw-character parsing) ----
   Called with [st.pos] just past the opening '<'. *)

and parse_direct_element st =
  let tag = read_tag_name st in
  let rec attrs acc =
    skip_raw_space st;
    if cur st = '/' || cur st = '>' then List.rev acc
    else begin
      let aname = read_tag_name st in
      skip_raw_space st;
      if cur st <> '=' then fail st "expected '=' in attribute";
      st.pos <- st.pos + 1;
      skip_raw_space st;
      let pieces = read_attr_pieces st in
      attrs ((aname, pieces) :: acc)
    end
  in
  let dattrs = attrs [] in
  let dname = Demaq_xml.Name.intern (Ast.local_name tag) in
  if cur st = '/' then begin
    st.pos <- st.pos + 1;
    if cur st <> '>' then fail st "expected '>' after '/'";
    st.pos <- st.pos + 1;
    { tag; dname; dattrs; dcontent = [] }
  end
  else begin
    if cur st <> '>' then fail st "expected '>' in start tag";
    st.pos <- st.pos + 1;
    let dcontent = read_content st in
    (* read_content stops after consuming "</" *)
    let close = read_tag_name st in
    if close <> tag then fail st "mismatched end tag </%s> (expected </%s>)" close tag;
    skip_raw_space st;
    if cur st <> '>' then fail st "expected '>' in end tag";
    st.pos <- st.pos + 1;
    { tag; dname; dattrs; dcontent = strip_boundary_space dcontent }
  end

and skip_raw_space st =
  while (not (at_end st)) && is_space (cur st) do st.pos <- st.pos + 1 done

and read_tag_name st =
  if not (is_name_start (cur st)) then fail st "expected a tag name";
  let p = st.pos in
  let i = ref p in
  while
    !i < len st && (is_name_char st.src.[!i] || st.src.[!i] = ':')
  do incr i done;
  st.pos <- !i;
  String.sub st.src p (!i - p)

and read_entity_char st =
  (* at '&' *)
  let semi =
    match String.index_from_opt st.src st.pos ';' with
    | Some s -> s
    | None -> fail st "bad entity reference"
  in
  let ent = String.sub st.src (st.pos + 1) (semi - st.pos - 1) in
  st.pos <- semi + 1;
  entity_text st ent

and read_attr_pieces st =
  let quote = cur st in
  if quote <> '"' && quote <> '\'' then fail st "expected attribute value";
  st.pos <- st.pos + 1;
  let buf = Buffer.create 16 in
  let pieces = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      pieces := A_text (Buffer.contents buf) :: !pieces;
      Buffer.clear buf
    end
  in
  let rec go () =
    if at_end st then fail st "unterminated attribute value"
    else if cur st = quote then st.pos <- st.pos + 1
    else if cur st = '{' && char_at st (st.pos + 1) = '{' then begin
      Buffer.add_char buf '{';
      st.pos <- st.pos + 2;
      go ()
    end
    else if cur st = '}' && char_at st (st.pos + 1) = '}' then begin
      Buffer.add_char buf '}';
      st.pos <- st.pos + 2;
      go ()
    end
    else if cur st = '{' then begin
      flush ();
      st.pos <- st.pos + 1;
      let e = parse_expr st in
      expect_sym st "}";
      pieces := A_expr e :: !pieces;
      go ()
    end
    else if cur st = '&' then begin
      Buffer.add_string buf (read_entity_char st);
      go ()
    end
    else begin
      Buffer.add_char buf (cur st);
      st.pos <- st.pos + 1;
      go ()
    end
  in
  go ();
  flush ();
  List.rev !pieces

and read_content st =
  let buf = Buffer.create 32 in
  let pieces = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      pieces := C_text (Buffer.contents buf) :: !pieces;
      Buffer.clear buf
    end
  in
  let rec go () =
    if at_end st then fail st "unterminated element constructor"
    else if cur st = '<' && char_at st (st.pos + 1) = '/' then begin
      flush ();
      st.pos <- st.pos + 2 (* consume "</" for the caller *)
    end
    else if cur st = '<' && char_at st (st.pos + 1) = '!' then begin
      (* CDATA or comment *)
      if st.pos + 8 < len st && String.sub st.src st.pos 9 = "<![CDATA[" then begin
        st.pos <- st.pos + 9;
        let stop =
          let rec find i =
            if i + 2 >= len st then fail st "unterminated CDATA"
            else if String.sub st.src i 3 = "]]>" then i
            else find (i + 1)
          in
          find st.pos
        in
        Buffer.add_string buf (String.sub st.src st.pos (stop - st.pos));
        st.pos <- stop + 3;
        go ()
      end
      else if st.pos + 3 < len st && String.sub st.src st.pos 4 = "<!--" then begin
        st.pos <- st.pos + 4;
        let stop =
          let rec find i =
            if i + 2 >= len st then fail st "unterminated comment"
            else if String.sub st.src i 3 = "-->" then i
            else find (i + 1)
          in
          find st.pos
        in
        st.pos <- stop + 3;
        go ()
      end
      else fail st "unsupported markup in constructor"
    end
    else if cur st = '<' then begin
      flush ();
      st.pos <- st.pos + 1;
      let d = parse_direct_element st in
      pieces := C_expr (Direct_elem d) :: !pieces;
      go ()
    end
    else if cur st = '{' && char_at st (st.pos + 1) = '{' then begin
      Buffer.add_char buf '{';
      st.pos <- st.pos + 2;
      go ()
    end
    else if cur st = '}' && char_at st (st.pos + 1) = '}' then begin
      Buffer.add_char buf '}';
      st.pos <- st.pos + 2;
      go ()
    end
    else if cur st = '{' then begin
      flush ();
      st.pos <- st.pos + 1;
      let e = parse_expr st in
      expect_sym st "}";
      pieces := C_expr e :: !pieces;
      go ()
    end
    else if cur st = '&' then begin
      Buffer.add_string buf (read_entity_char st);
      go ()
    end
    else begin
      Buffer.add_char buf (cur st);
      st.pos <- st.pos + 1;
      go ()
    end
  in
  go ();
  List.rev !pieces

(* XQuery boundary-space policy "strip": whitespace-only text between
   markup is dropped. *)
and strip_boundary_space pieces =
  List.filter
    (function
      | C_text s -> String.exists (fun c -> not (is_space c)) s
      | C_expr _ -> true)
    pieces

(* ---- entry points ---- *)

let parse src =
  let st = state_of_string src in
  let e = parse_expr st in
  skip_ws st;
  if not (at_end st) then fail st "trailing input after expression";
  e

let parse_result src =
  match parse src with
  | e -> Ok e
  | exception Syntax_error { pos; msg } ->
    Error (Printf.sprintf "syntax error at offset %d: %s" pos msg)

(* ---- token-level helpers for host languages (QDL) ---- *)

let peek_name st = match peek st with Tname n -> Some n | _ -> None

let read_name st =
  match advance st with
  | Tname n -> n
  | _ -> fail st "expected a name"

let accept_name = accept_keyword
let accept_punct = accept_sym

let read_int st =
  match advance st with
  | Tint i -> i
  | _ -> fail st "expected an integer"

let read_braced_raw st =
  skip_ws st;
  if cur st <> '{' then fail st "expected '{'";
  st.pos <- st.pos + 1;
  let start = st.pos in
  let depth = ref 1 in
  while !depth > 0 do
    if at_end st then fail st "unterminated '{' block";
    (match cur st with
     | '{' -> incr depth
     | '}' -> decr depth
     | _ -> ());
    st.pos <- st.pos + 1
  done;
  String.sub st.src start (st.pos - 1 - start)

let error_position src pos =
  let line = ref 1 and col = ref 1 in
  String.iteri
    (fun i c ->
      if i < pos then
        if c = '\n' then begin
          incr line;
          col := 1
        end
        else incr col)
    src;
  Printf.sprintf "line %d, column %d" !line !col
