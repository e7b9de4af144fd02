(* Abstract syntax of the QML expression language: the XQuery subset plus
   the Demaq queue update primitives ([do enqueue], [do reset]). *)

type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Self
  | Parent
  | Attribute

type node_test =
  | Name_test of string (* local name; namespaces resolved by serialization *)
  | Wildcard
  | Text_test
  | Node_kind_test
  | Comment_test

type binop =
  | Or
  | And
  | Gen_cmp of [ `Eq | `Ne | `Lt | `Le | `Gt | `Ge ]
  | Val_cmp of [ `Eq | `Ne | `Lt | `Le | `Gt | `Ge ]
  | Node_cmp of [ `Is | `Precedes | `Follows ]
  | Add
  | Sub
  | Mul
  | Div
  | Idiv
  | Mod
  | Union
  | Intersect
  | Except

(* Sequence types for [instance of] (XQuery 1.0 SequenceType syntax). *)
type item_type =
  | It_atomic of Value.atomic_type
  | It_untyped  (* xs:untypedAtomic *)
  | It_anyatomic  (* xs:anyAtomicType *)
  | It_element of string option
  | It_attribute of string option
  | It_text
  | It_document
  | It_node
  | It_item

type seq_type =
  | St_empty  (* empty-sequence() *)
  | St of item_type * [ `One | `Optional | `Star | `Plus ]

type expr =
  | Literal of Value.atomic
  | Empty_seq
  | Var of string
  | Context_item
  | Root  (** the document node of the context item's tree (leading [/]) *)
  | Sequence of expr list
  | Path of expr * expr
      (** [e1/e2]: evaluate [e2] once per item of [e1]; doc-order dedup *)
  | Axis_step of axis * node_test * expr list  (** axis step with predicates *)
  | Filter of expr * expr list  (** primary expression with predicates *)
  | Call of string * expr list  (** function call, possibly prefixed name *)
  | If of expr * expr * expr
  | Flwor of clause list * expr
  | Quantified of [ `Some | `Every ] * (string * expr) list * expr
  | Binary of binop * expr * expr
  | Neg of expr
  | Range of expr * expr
  | Direct_elem of direct_element
  | Computed_elem of expr * expr  (** element {name} {content} *)
  | Computed_attr of expr * expr  (** attribute {name} {value} *)
  | Computed_text of expr  (** text {content} *)
  | Cast of expr * Value.atomic_type * [ `Cast | `Castable ]
  | Instance_of of expr * seq_type
  | Treat_as of expr * seq_type
      (** runtime type assertion: identity if the value matches, dynamic
          error otherwise *)
  | Enqueue of { payload : expr; queue : string; props : (string * expr) list }
  | Reset of (string * expr) option  (** slicing name and key, if explicit *)
  | Bind of (string * expr) list * expr
      (** compiler-introduced plan-level let: sequential bindings (each may
          reference the previous), no tuple stream and no focus change —
          unlike a FLWOR [let] clause. Never produced by the parser; the
          rule compiler hoists common subexpressions into these. *)

and clause =
  | For of (string * string option * expr) list
      (** variable, optional positional variable ([at $i]), domain *)
  | Let of (string * expr) list
  | Where of expr
  | Order_by of (expr * [ `Asc | `Desc ] * [ `Empty_least | `Empty_greatest ]) list

and direct_element = {
  tag : string;
  dattrs : (string * attr_piece list) list;
  dcontent : content_piece list;
}

and attr_piece = A_text of string | A_expr of expr

and content_piece = C_text of string | C_expr of expr

(* Fold over all sub-expressions, used by the rewriter and the compiler's
   dependency analysis. *)
let rec fold_expr f acc e =
  let acc = f acc e in
  let fold_list = List.fold_left (fold_expr f) in
  match e with
  | Literal _ | Empty_seq | Var _ | Context_item | Root -> acc
  | Sequence es -> fold_list acc es
  | Path (a, b) | Binary (_, a, b) | Range (a, b) -> fold_expr f (fold_expr f acc a) b
  | Axis_step (_, _, preds) -> fold_list acc preds
  | Filter (p, preds) -> fold_list (fold_expr f acc p) preds
  | Call (_, args) -> fold_list acc args
  | If (c, t, e') -> fold_expr f (fold_expr f (fold_expr f acc c) t) e'
  | Flwor (clauses, ret) ->
    let acc =
      List.fold_left
        (fun acc c ->
          match c with
          | For binds ->
            List.fold_left (fun acc (_, _, e) -> fold_expr f acc e) acc binds
          | Let binds ->
            List.fold_left (fun acc (_, e) -> fold_expr f acc e) acc binds
          | Where e -> fold_expr f acc e
          | Order_by keys ->
            List.fold_left (fun acc (e, _, _) -> fold_expr f acc e) acc keys)
        acc clauses
    in
    fold_expr f acc ret
  | Quantified (_, binds, sat) ->
    let acc =
      List.fold_left (fun acc (_, e) -> fold_expr f acc e) acc binds
    in
    fold_expr f acc sat
  | Neg a -> fold_expr f acc a
  | Direct_elem d ->
    let acc =
      List.fold_left
        (fun acc (_, pieces) ->
          List.fold_left
            (fun acc p -> match p with A_text _ -> acc | A_expr e -> fold_expr f acc e)
            acc pieces)
        acc d.dattrs
    in
    List.fold_left
      (fun acc p -> match p with C_text _ -> acc | C_expr e -> fold_expr f acc e)
      acc d.dcontent
  | Computed_elem (a, b) | Computed_attr (a, b) ->
    fold_expr f (fold_expr f acc a) b
  | Computed_text a | Cast (a, _, _) | Instance_of (a, _) | Treat_as (a, _) ->
    fold_expr f acc a
  | Enqueue { payload; props; _ } ->
    List.fold_left (fun acc (_, e) -> fold_expr f acc e) (fold_expr f acc payload) props
  | Reset None -> acc
  | Reset (Some (_, key)) -> fold_expr f acc key
  | Bind (binds, body) ->
    let acc = List.fold_left (fun acc (_, e) -> fold_expr f acc e) acc binds in
    fold_expr f acc body

(* Bottom-up rewriting. *)
let rec map_expr f e =
  let m = map_expr f in
  let e' =
    match e with
    | Literal _ | Empty_seq | Var _ | Context_item | Root -> e
    | Sequence es -> Sequence (List.map m es)
    | Path (a, b) -> Path (m a, m b)
    | Axis_step (ax, t, preds) -> Axis_step (ax, t, List.map m preds)
    | Filter (p, preds) -> Filter (m p, List.map m preds)
    | Call (name, args) -> Call (name, List.map m args)
    | If (c, t, el) -> If (m c, m t, m el)
    | Flwor (clauses, ret) ->
      let mc = function
        | For binds -> For (List.map (fun (v, p, e) -> (v, p, m e)) binds)
        | Let binds -> Let (List.map (fun (v, e) -> (v, m e)) binds)
        | Where e -> Where (m e)
        | Order_by keys -> Order_by (List.map (fun (e, d, ep) -> (m e, d, ep)) keys)
      in
      Flwor (List.map mc clauses, m ret)
    | Quantified (q, binds, sat) ->
      Quantified (q, List.map (fun (v, e) -> (v, m e)) binds, m sat)
    | Binary (op, a, b) -> Binary (op, m a, m b)
    | Neg a -> Neg (m a)
    | Range (a, b) -> Range (m a, m b)
    | Direct_elem d ->
      Direct_elem
        { d with
          dattrs =
            List.map
              (fun (n, pieces) ->
                ( n,
                  List.map
                    (function A_text _ as t -> t | A_expr e -> A_expr (m e))
                    pieces ))
              d.dattrs;
          dcontent =
            List.map
              (function C_text _ as t -> t | C_expr e -> C_expr (m e))
              d.dcontent }
    | Computed_elem (a, b) -> Computed_elem (m a, m b)
    | Computed_attr (a, b) -> Computed_attr (m a, m b)
    | Computed_text a -> Computed_text (m a)
    | Cast (a, ty, k) -> Cast (m a, ty, k)
    | Instance_of (a, st) -> Instance_of (m a, st)
    | Treat_as (a, st) -> Treat_as (m a, st)
    | Enqueue { payload; queue; props } ->
      Enqueue
        { payload = m payload;
          queue;
          props = List.map (fun (n, e) -> (n, m e)) props }
    | Reset None -> Reset None
    | Reset (Some (s, key)) -> Reset (Some (s, m key))
    | Bind (binds, body) ->
      Bind (List.map (fun (v, e) -> (v, m e)) binds, m body)
  in
  f e'

let contains_update e =
  fold_expr
    (fun acc e -> acc || match e with Enqueue _ | Reset _ -> true | _ -> false)
    false e

let called_functions e =
  fold_expr
    (fun acc e -> match e with Call (name, _) -> name :: acc | _ -> acc)
    [] e

(* [a//t] parses as [a/descendant-or-self::node()/child::t], which
   evaluates to every node of the subtree and then every node's children.
   Without predicates on the child step it selects exactly
   [a/descendant::t]; a predicate there counts positions among one
   parent's children, so such a step is left alone. *)
let fuse_descendant_steps expr =
  map_expr
    (function
      | Path
          ( Path (a, Axis_step (Descendant_or_self, Node_kind_test, [])),
            Axis_step (Child, test, []) ) ->
        Path (a, Axis_step (Descendant, test, []))
      | e -> e)
    expr
