module Tree = Demaq_xml.Tree
module Name = Demaq_xml.Name
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

let rec eval env expr : Value.t =
  match expr with
  | Literal a -> [ Atom a ]
  | Empty_seq -> []
  | Var v -> lookup env v
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
  | Direct_elem d -> [ Node (node_of_tree (construct env d)) ]
  | Computed_elem (name_expr, content_expr) ->
    let name = constructor_name env name_expr in
    let attrs, children = content_items env (eval env content_expr) in
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
    let tree = payload_tree env (eval env payload) in
    let props =
      List.map
        (fun (name, e) ->
          match atomize (eval env e) with
          | [ a ] -> (name, a)
          | [] -> err "property %s: value expression returned empty sequence" name
          | _ -> err "property %s: value expression returned multiple items" name)
        props
    in
    emit env (Update.Enqueue { payload = tree; queue; props });
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
  | Bind (binds, body) ->
    let env =
      List.fold_left (fun env (v, e) -> bind env v (eval env e)) env binds
    in
    eval env body

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

and construct env d : Tree.tree =
  let attrs =
    List.map
      (fun (name, pieces) ->
        let value =
          String.concat ""
            (List.map
               (function
                 | A_text s -> s
                 | A_expr e ->
                   String.concat " "
                     (List.map string_of_atomic (atomize (eval env e))))
               pieces)
        in
        { Tree.attr_name = Name.make (local_name name); attr_value = value })
      d.dattrs
  in
  let extra_attrs, children =
    List.fold_left
      (fun (attrs_acc, kids_acc) piece ->
        match piece with
        | C_text s -> (attrs_acc, kids_acc @ [ Tree.Text s ])
        | C_expr e ->
          let new_attrs, new_kids = content_items env (eval env e) in
          (attrs_acc @ new_attrs, kids_acc @ new_kids))
      ([], []) d.dcontent
  in
  (* Merge adjacent text nodes, as constructors must. *)
  let rec merge = function
    | Tree.Text a :: Tree.Text b :: rest -> merge (Tree.Text (a ^ b) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  Tree.Element
    {
      name = Name.make (local_name d.tag);
      attrs = attrs @ extra_attrs;
      children = merge children;
    }

and local_name tag =
  match String.index_opt tag ':' with
  | Some i -> String.sub tag (i + 1) (String.length tag - i - 1)
  | None -> tag

and content_items env items : Tree.attribute list * Tree.tree list =
  (* Per XQuery: node items are copied (attribute nodes become attributes
     of the constructed element); consecutive atomic items are joined with
     single spaces into one text node. *)
  let rec go = function
    | [] -> ([], [])
    | Node n :: rest when is_attribute_node n ->
      let name =
        match Tree.node_name n with Some nm -> nm | None -> Name.make "attr"
      in
      let attrs, kids = go rest in
      ({ Tree.attr_name = name; attr_value = Tree.string_value n } :: attrs, kids)
    | Node n :: rest ->
      let attrs, kids = go rest in
      (attrs, tree_of_node n :: kids)
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
      let attrs, kids = go rest in
      (attrs, Tree.Text (Buffer.contents buf) :: kids)
  in
  ignore env;
  go items

(* Dynamic type errors from the value model surface as evaluation errors. *)
let eval env expr =
  try eval env expr with Value.Type_error msg -> err "%s" msg

let eval_with_updates env expr =
  let env = { env with updates = ref [] } in
  let v = eval env expr in
  (v, pending env)

let run ?host ?(vars = []) ?context src =
  let expr = Ast.fuse_descendant_steps (Parser.parse src) in
  let env = Context.make ?host () in
  let env =
    match context with
    | Some tree -> { env with item = Some (Node (node_of_tree tree)) }
    | None -> env
  in
  let env = List.fold_left (fun e (v, value) -> bind e v value) env vars in
  eval_with_updates env expr
