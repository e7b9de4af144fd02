module Tree = Demaq_xml.Tree
module Name = Demaq_xml.Name
module Bxml = Demaq_xml.Bxml
open Ast
open Value
open Context

exception Eval_error = Context.Eval_error

let err = eval_error

let node_of_tree tree =
  match Tree.children (Tree.root_node (Tree.doc tree)) with
  | [ n ] -> n
  | _ -> assert false

let doc_node_of_tree tree = Tree.root_node (Tree.doc tree)

(* A standalone attribute node (result of a computed attribute
   constructor): materialized as the sole attribute of a hidden holder
   element so it has a position in a document. *)
let attribute_node name value =
  let holder =
    Tree.Element
      {
        name = Name.make "#attribute-holder";
        attrs = [ { Tree.attr_name = Name.make name; attr_value = value } ];
        children = [];
      }
  in
  match Tree.attributes (node_of_tree holder) with
  | [ a ] -> a
  | _ -> assert false

let is_attribute_node n =
  match Tree.focus n with Tree.Fattribute _ -> true | _ -> false

let attribute_name n =
  match Tree.node_name n with Some name -> name | None -> Name.make "attr"

(* [instance of] item matching. xs:integer is derived from xs:decimal in
   the XDM type hierarchy, so integers match both. *)
let item_matches item (it : Ast.item_type) =
  match it, item with
  | Ast.It_item, _ -> true
  | Ast.It_anyatomic, Atom _ -> true
  | Ast.It_untyped, Atom a -> (match a with Untyped _ -> true | _ -> false)
  | Ast.It_atomic ty, Atom a -> (
    match ty, a with
    | Value.T_string, String _ -> true
    | Value.T_integer, Integer _ -> true
    | Value.T_decimal, (Decimal _ | Integer _) -> true
    | Value.T_boolean, Boolean _ -> true
    | (Value.T_string | Value.T_integer | Value.T_decimal | Value.T_boolean), _ ->
      false)
  | (Ast.It_atomic _ | Ast.It_untyped | Ast.It_anyatomic), Node _ -> false
  | Ast.It_node, Node _ -> true
  | Ast.It_text, Node n -> Tree.is_text n
  | Ast.It_document, Node n ->
    (match Tree.focus n with Tree.Fdocument -> true | _ -> false)
  | Ast.It_element name, Node n -> (
    match Tree.focus n with
    | Tree.Ftree (Tree.Element e) ->
      (match name with Some nm -> Name.local e.Tree.name = nm | None -> true)
    | _ -> false)
  | Ast.It_attribute name, Node n -> (
    match Tree.focus n with
    | Tree.Fattribute a ->
      (match name with Some nm -> Name.local a.Tree.attr_name = nm | None -> true)
    | _ -> false)
  | (Ast.It_node | Ast.It_text | Ast.It_document | Ast.It_element _
    | Ast.It_attribute _), Atom _ -> false

let seq_matches v (st : Ast.seq_type) =
  match st with
  | Ast.St_empty -> v = []
  | Ast.St (it, occ) ->
    let n = List.length v in
    let count_ok =
      match occ with
      | `One -> n = 1
      | `Optional -> n <= 1
      | `Star -> true
      | `Plus -> n >= 1
    in
    count_ok && List.for_all (fun item -> item_matches item it) v

(* Deep copy of a node into a standalone tree (XQuery constructors copy
   their content). *)
let tree_of_node n =
  match Tree.node_tree n with
  | Some t -> t
  | None -> Tree.Text (Tree.string_value n)

(* A node test decided on a child's or descendant's tree, before any node
   record is built for it. *)
let test_tree test (t : Tree.tree) =
  match test, t with
  | Node_kind_test, _
  | Wildcard, Tree.Element _
  | Text_test, Tree.Text _
  | Comment_test, Tree.Comment _ ->
    true
  | Name_test local, Tree.Element e -> String.equal (Name.local e.Tree.name) local
  | (Wildcard | Name_test _ | Text_test | Comment_test), _ -> false

let test_node test n =
  match Tree.focus n, test with
  | Tree.Ftree t, _ -> test_tree test t
  | Tree.Fattribute _, (Node_kind_test | Wildcard) -> true
  | Tree.Fattribute a, Name_test local -> String.equal (Name.local a.Tree.attr_name) local
  | Tree.Fdocument, Node_kind_test -> true
  | (Tree.Fattribute _ | Tree.Fdocument), _ -> false

(* The nodes an axis step selects from [n] before its predicates, in
   document order. *)
let step_nodes axis test n =
  match axis with
  | Child -> Tree.children_where (test_tree test) n
  | Descendant -> Tree.descendants_where (test_tree test) n
  | Descendant_or_self ->
    let below = Tree.descendants_where (test_tree test) n in
    if test_node test n then n :: below else below
  | Self -> if test_node test n then [ n ] else []
  | Parent -> (
    match Tree.parent n with Some p when test_node test p -> [ p ] | _ -> [])
  | Attribute -> List.filter (test_node test) (Tree.attributes n)

(* A forward step from a single node yields distinct nodes in document
   order, so its [Path] needs no sort. *)
let forward_step = function
  | Axis_step ((Child | Descendant | Descendant_or_self | Self | Attribute), _, _) -> true
  | _ -> false

(* ---- template payloads: the parts that evaluate nothing ---- *)

(* An item a text run takes as text: an atom or a text node. *)
let textual_item = function
  | Atom _ -> true
  | Node n -> (
    (not (is_attribute_node n)) && match tree_of_node n with Tree.Text _ -> true | _ -> false)

(* The strings a hole's textual items add to a run, prepended to [acc]:
   atoms joined by single spaces within the hole. *)
let rec hole_strings acc after_atom = function
  | [] -> acc
  | Atom a :: rest ->
    let acc = if after_atom then " " :: acc else acc in
    hole_strings (string_of_atomic a :: acc) true rest
  | Node n :: rest -> (
    match tree_of_node n with
    | Tree.Text s -> hole_strings (s :: acc) false rest
    | _ -> invalid_arg "hole_strings: not a text item")

(* A text run's gap: its one token's content, or no token when no static
   text and no item is in it (an empty-string atom still makes one). *)
let run_text items parts =
  let rec go acc = function
    | [] -> acc
    | P_text s :: rest -> go (s :: acc) rest
    | P_hole (k, _) :: rest -> go (hole_strings acc false items.(k)) rest
  in
  match go [] parts with
  | [] -> Bxml.Program.no_text
  | [ s ] -> s
  | rev -> String.concat "" (List.rev rev)

(* ---- constructor content ---- *)

(* Content items, prepended to reversed (attributes, children) lists. Per
   XQuery, node items are copied (attribute nodes become attributes of the
   constructed element); consecutive atomic items are joined with single
   spaces into one text node. *)
let rec content_rev items (attrs, kids) =
  match items with
  | [] -> (attrs, kids)
  | Node n :: rest when is_attribute_node n ->
    content_rev rest
      ({ Tree.attr_name = attribute_name n; attr_value = Tree.string_value n } :: attrs, kids)
  | Node n :: rest -> content_rev rest (attrs, tree_of_node n :: kids)
  | Atom a :: rest ->
    let buf = Buffer.create 16 in
    Buffer.add_string buf (string_of_atomic a);
    let rec atoms = function
      | Atom b :: rest ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_atomic b);
        atoms rest
      | rest -> rest
    in
    let rest = atoms rest in
    content_rev rest (attrs, Tree.Text (Buffer.contents buf) :: kids)

let content_items items =
  let attrs, kids = content_rev items ([], []) in
  (List.rev attrs, List.rev kids)

(* The element a direct constructor builds from its name, its own
   attributes and its content as reversed (computed attributes,
   children): the computed attributes follow its own, and adjacent text
   nodes merge into one. *)
let constructed name attrs (extra_rev, kids_rev) =
  let rec merge acc = function
    | Tree.Text b :: rest -> (
      match acc with
      | Tree.Text a :: acc -> merge (Tree.Text (b ^ a) :: acc) rest
      | _ -> merge (Tree.Text b :: acc) rest)
    | x :: rest -> merge (x :: acc) rest
    | [] -> acc
  in
  Tree.Element
    {
      name;
      attrs = (match extra_rev with [] -> attrs | _ -> attrs @ List.rev extra_rev);
      children = merge [] kids_rev;
    }

(* The element a template denotes, its gaps and item slots filled: what
   [construct] builds from the same values. *)
let template_tree t gaps items =
  let rec element te =
    let attrs =
      List.map
        (fun (id, a) ->
          {
            Tree.attr_name = t.t_names.(id);
            attr_value = (match a with Ta_static s -> s | Ta_gap (g, _) -> gaps.(g));
          })
        te.te_attrs
    in
    constructed t.t_names.(te.te_name) attrs
      (List.fold_left
         (fun (extra, kids) piece ->
           match piece with
           | T_text s -> (extra, Tree.Text s :: kids)
           | T_element child -> (extra, element child :: kids)
           | T_run (_, parts) ->
             List.fold_left
               (fun acc part ->
                 match part with
                 | P_text s -> (fst acc, Tree.Text s :: snd acc)
                 | P_hole (k, _) -> content_rev items.(k) acc)
               (extra, kids) parts)
         ([], []) te.te_content)
  in
  element t.t_root

let rec eval env expr : Value.t =
  match expr with
  | Literal a -> [ Atom a ]
  | Empty_seq -> []
  | Var v -> lookup env v
  | Slot k ->
    if k < Array.length env.slots then Array.unsafe_get env.slots k
    else err "plan binding %d is not bound" k
  | Context_item -> [ context_item env ]
  | Root ->
    let n = context_node env in
    [ Node (Tree.root_node (Tree.node_document n)) ]
  | Sequence es -> List.concat_map (eval env) es
  | Path (a, b) -> (
    match eval env a with
    | [ (Node _ as item) ] when forward_step b -> eval (with_item env item 1 1) b
    | base ->
      let size = List.length base in
      let results =
        List.concat
          (List.mapi
             (fun i item -> eval (with_item env item (i + 1) size) b)
             base)
      in
      doc_order_dedup results)
  | Axis_step (axis, test, preds) ->
    let n = context_node env in
    apply_predicates env preds (List.map (fun n -> Node n) (step_nodes axis test n))
  | Filter (e, preds) -> apply_predicates env preds (eval env e)
  | Call (name, args) -> Functions.call env name (List.map (eval env) args)
  | If (c, t, e) -> if ebv (eval env c) then eval env t else eval env e
  | Flwor (clauses, ret) ->
    let tuples = eval_clauses env [ env ] clauses in
    List.concat_map (fun env' -> eval env' ret) tuples
  | Quantified (q, binds, sat) ->
    let rec go env = function
      | [] -> ebv (eval env sat)
      | (v, e) :: rest ->
        let items = eval env e in
        let test item = go (bind env v [ item ]) rest in
        (match q with
         | `Some -> List.exists test items
         | `Every -> List.for_all test items)
    in
    [ Atom (Boolean (go env binds)) ]
  | Binary (op, a, b) -> eval_binary env op a b
  | Neg a -> (
    match atomize (eval env a) with
    | [] -> []
    | [ x ] -> (
      match x with
      | Integer i -> [ Atom (Integer (-i)) ]
      | _ ->
        let f = number_of_atomic x in
        if Float.is_nan f then err "unary minus on non-numeric value"
        else [ Atom (Decimal (-.f)) ])
    | _ -> err "unary minus on multi-item sequence")
  | Range (a, b) -> (
    match atomize (eval env a), atomize (eval env b) with
    | [], _ | _, [] -> []
    | [ x ], [ y ] ->
      let lo = int_of_float (number_of_atomic x)
      and hi = int_of_float (number_of_atomic y) in
      if lo > hi then []
      else List.init (hi - lo + 1) (fun i -> Atom (Integer (lo + i)))
    | _ -> err "'to' over multi-item sequence")
  | Direct_elem d | Template { t_source = d; _ } -> [ Node (node_of_tree (construct env d)) ]
  | Computed_elem (name_expr, content_expr) ->
    let name = constructor_name env name_expr in
    let attrs, children = content_items (eval env content_expr) in
    [ Node (node_of_tree (Tree.Element { name = Name.make name; attrs; children })) ]
  | Computed_attr (name_expr, value_expr) ->
    let name = constructor_name env name_expr in
    let value =
      String.concat " " (List.map string_of_atomic (atomize (eval env value_expr)))
    in
    [ Node (attribute_node name value) ]
  | Computed_text content_expr -> (
    match atomize (eval env content_expr) with
    | [] -> []
    | atoms ->
      let text = String.concat " " (List.map string_of_atomic atoms) in
      [ Node (node_of_tree_text text) ])
  | Cast (e, ty, kind) -> (
    match atomize (eval env e), kind with
    | [], `Cast -> []
    | [], `Castable -> [ Atom (Boolean true) ]
    | [ a ], `Cast -> (
      match Value.cast ty a with
      | Ok a -> [ Atom a ]
      | Error msg -> err "%s" msg)
    | [ a ], `Castable -> [ Atom (Boolean (Result.is_ok (Value.cast ty a))) ]
    | _, `Cast -> err "cast of a multi-item sequence"
    | _, `Castable -> [ Atom (Boolean false) ])
  | Instance_of (e, st) -> [ Atom (Boolean (seq_matches (eval env e) st)) ]
  | Treat_as (e, st) ->
    let v = eval env e in
    if seq_matches v st then v
    else err "treat as: value does not match %s" (Pp.seq_type_name st)
  | Enqueue { payload; queue; props } ->
    let payload =
      match payload with
      | Template t -> fill env t
      | e -> Bxml.encode (payload_tree env (eval env e))
    in
    let props =
      List.map
        (fun (name, e) ->
          match atomize (eval env e) with
          | [ a ] -> (name, a)
          | [] -> err "property %s: value expression returned empty sequence" name
          | _ -> err "property %s: value expression returned multiple items" name)
        props
    in
    emit env (Update.Enqueue { payload; queue; props });
    []
  | Reset None ->
    emit env (Update.Reset { slicing = None; key = None });
    []
  | Reset (Some (slicing, key_expr)) ->
    let key =
      match atomize (eval env key_expr) with
      | [ a ] -> a
      | _ -> err "do reset: slice key must be a single atomic value"
    in
    emit env (Update.Reset { slicing = Some slicing; key = Some key });
    []

and constructor_name env name_expr =
  match atomize (eval env name_expr) with
  | [ a ] ->
    let name = string_of_atomic a in
    if name = "" then err "constructor: empty element/attribute name" else name
  | _ -> err "constructor: name expression must be a single atomic value"

and node_of_tree_text text =
  match Tree.children (Tree.root_node (Tree.doc_of_forest [ Tree.Text text ])) with
  | [ n ] -> n
  | _ -> assert false

and payload_tree _env v =
  match v with
  | [ Node n ] -> (
    match Tree.focus n with
    | Tree.Ftree (Tree.Element _ as t) -> t
    | Tree.Fdocument -> (
      match Tree.document_element (Tree.node_document n) with
      | Some t -> t
      | None -> err "do enqueue: document has no element")
    | _ -> err "do enqueue: payload must be an element node")
  | [ Atom _ ] -> err "do enqueue: payload must be an element node, not an atomic value"
  | [] -> err "do enqueue: payload expression returned the empty sequence"
  | _ -> err "do enqueue: payload expression returned multiple items"
  [@@warning "-27"]

and apply_predicates env preds items =
  List.fold_left
    (fun items pred ->
      let size = List.length items in
      List.concat
        (List.mapi
           (fun i item ->
             let env' = with_item env item (i + 1) size in
             let r = eval env' pred in
             let keep =
               match r with
               | [ Atom ((Integer _ | Decimal _) as a) ] ->
                 int_of_float (number_of_atomic a) = i + 1
               | _ -> ebv r
             in
             if keep then [ item ] else [])
           items))
    items preds

and eval_clauses env tuples clauses =
  match clauses with
  | [] -> tuples
  | For binds :: rest ->
    let expand_bind tuples (v, pos_var, e) =
      List.concat_map
        (fun env' ->
          List.mapi
            (fun i item ->
              let env'' = bind env' v [ item ] in
              match pos_var with
              | Some p -> bind env'' p [ Atom (Integer (i + 1)) ]
              | None -> env'')
            (eval env' e))
        tuples
    in
    eval_clauses env (List.fold_left expand_bind tuples binds) rest
  | Let binds :: rest ->
    let tuples =
      List.map
        (fun env' ->
          List.fold_left (fun env'' (v, e) -> bind env'' v (eval env'' e)) env' binds)
        tuples
    in
    eval_clauses env tuples rest
  | Where e :: rest ->
    eval_clauses env (List.filter (fun env' -> ebv (eval env' e)) tuples) rest
  | Order_by keys :: rest ->
    let decorated =
      List.map
        (fun env' ->
          let ks =
            List.map
              (fun (e, dir, empty_policy) ->
                let k = match atomize (eval env' e) with [ a ] -> Some a | _ -> None in
                (k, dir, empty_policy))
              keys
          in
          (ks, env'))
        tuples
    in
    let cmp (ka, _) (kb, _) =
      let rec go = function
        | [] -> 0
        | ((a, dir, empty_policy), (b, _, _)) :: rest ->
          let empty_c = match empty_policy with `Empty_least -> -1 | `Empty_greatest -> 1 in
          let c =
            match a, b with
            | None, None -> 0
            | None, Some _ -> empty_c
            | Some _, None -> -empty_c
            | Some a, Some b -> compare_atomic a b
          in
          let c = match dir with `Asc -> c | `Desc -> -c in
          if c <> 0 then c else go rest
      in
      go (List.combine ka kb)
    in
    eval_clauses env (List.map snd (List.stable_sort cmp decorated)) rest

and eval_binary env op a b =
  match op with
  | Or -> [ Atom (Boolean (ebv (eval env a) || ebv (eval env b))) ]
  | And -> [ Atom (Boolean (ebv (eval env a) && ebv (eval env b))) ]
  | Gen_cmp c -> [ Atom (Boolean (general_compare c (eval env a) (eval env b))) ]
  | Val_cmp c -> value_compare c (eval env a) (eval env b)
  | Add -> arith `Add (eval env a) (eval env b)
  | Sub -> arith `Sub (eval env a) (eval env b)
  | Mul -> arith `Mul (eval env a) (eval env b)
  | Div -> arith `Div (eval env a) (eval env b)
  | Idiv -> arith `Idiv (eval env a) (eval env b)
  | Mod -> arith `Mod (eval env a) (eval env b)
  | Union ->
    let l = eval env a and r = eval env b in
    if all_nodes l && all_nodes r then doc_order_dedup (l @ r)
    else err "union over non-node sequences"
  | Intersect | Except ->
    let l = eval env a and r = eval env b in
    if not (all_nodes l && all_nodes r) then
      err "intersect/except over non-node sequences"
    else begin
      let rnodes = List.filter_map (function Node n -> Some n | Atom _ -> None) r in
      let in_r n = List.exists (Tree.same_node n) rnodes in
      let keep = match op with Intersect -> in_r | _ -> fun n -> not (in_r n) in
      doc_order_dedup
        (List.filter (function Node n -> keep n | Atom _ -> false) l)
    end
  | Node_cmp cmp -> (
    let single side v =
      match v with
      | [] -> None
      | [ Node n ] -> Some n
      | _ -> err "%s operand of a node comparison must be a single node" side
    in
    match single "left" (eval env a), single "right" (eval env b) with
    | None, _ | _, None -> []
    | Some x, Some y ->
      let result =
        match cmp with
        | `Is -> Tree.same_node x y
        | `Precedes -> Tree.doc_order x y < 0
        | `Follows -> Tree.doc_order x y > 0
      in
      [ Atom (Boolean result) ])

(* ---- direct element constructors ---- *)

(* An attribute value: literal pieces and enclosed expressions, each
   expression's atoms joined with single spaces. *)
and attr_value env pieces =
  match pieces with
  | [ A_text s ] -> s
  | _ ->
    String.concat ""
      (List.map (function A_text s -> s | A_expr e -> atoms_text env e) pieces)

and atoms_text env e = String.concat " " (List.map string_of_atomic (atomize (eval env e)))

and construct env d : Tree.tree =
  let attrs =
    List.map
      (fun (name, pieces) ->
        { Tree.attr_name = Name.make (local_name name); attr_value = attr_value env pieces })
      d.dattrs
  in
  constructed d.dname attrs
    (List.fold_left
       (fun acc piece ->
         match piece with
         | C_text s -> (fst acc, Tree.Text s :: snd acc)
         | C_expr e -> content_rev (eval env e) acc)
       ([], []) d.dcontent)

(* ---- template payloads ---- *)

(* The payload a lowered constructor denotes: the bytes of [Bxml.encode]
   of the tree [construct] builds, with the same evaluation order. The
   holes are evaluated once, first, in constructor order; if each yields
   text, the template's byte program writes the payload from the gap
   values with no tree, and otherwise the element is built from the
   template, the gap values and the items the holes yielded, and
   encoded. *)
and fill env t =
  let gaps =
    match Bxml.Program.gaps t.t_program with 0 -> [||] | n -> Array.make n ""
  in
  let items = if t.t_items = 0 then [||] else Array.make t.t_items [] in
  if fill_element env gaps items true t.t_root then Bxml.Program.render t.t_program gaps
  else Bxml.encode (template_tree t gaps items)

(* [textual]: every hole so far yields only atoms and text, so the gaps of
   text runs are filled too. *)
and fill_element env gaps items textual te =
  fill_attrs env gaps te.te_attrs;
  fill_content env gaps items textual te.te_content

and fill_attrs env gaps = function
  | [] -> ()
  | (_, Ta_static _) :: rest -> fill_attrs env gaps rest
  | (_, Ta_gap (g, pieces)) :: rest ->
    gaps.(g) <- attr_value env pieces;
    fill_attrs env gaps rest

and fill_content env gaps items textual = function
  | [] -> textual
  | T_text _ :: rest -> fill_content env gaps items textual rest
  | T_element child :: rest ->
    fill_content env gaps items (fill_element env gaps items textual child) rest
  | T_run (g, parts) :: rest ->
    let textual = fill_holes env items textual parts in
    if textual then gaps.(g) <- run_text items parts;
    fill_content env gaps items textual rest

and fill_holes env items textual = function
  | [] -> textual
  | P_text _ :: rest -> fill_holes env items textual rest
  | P_hole (k, e) :: rest ->
    let v = eval env e in
    items.(k) <- v;
    fill_holes env items (textual && List.for_all textual_item v) rest

(* Dynamic type errors from the value model surface as evaluation errors. *)
let eval env expr =
  try eval env expr with Value.Type_error msg -> err "%s" msg

let eval_with_updates env expr =
  let env = { env with updates = ref [] } in
  let v = eval env expr in
  (v, pending env)

let run ?host ?(vars = []) ?context src =
  let expr = Ast.lower_templates (Ast.fuse_descendant_steps (Parser.parse src)) in
  let env = Context.make ?host () in
  let env =
    match context with
    | Some tree -> { env with item = Some (Node (node_of_tree tree)) }
    | None -> env
  in
  let env = List.fold_left (fun e (v, value) -> bind e v value) env vars in
  eval_with_updates env expr
