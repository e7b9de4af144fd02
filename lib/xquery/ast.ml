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
  | Slot of int
      (** plan binding [k], read from the environment's slot array: the
          rule compiler puts these where it hoisted a common
          subexpression, and {!Plan.eval} fills the slots *)
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
  | Template of template
      (** a direct element constructor lowered to a bXML template
          ({!lower_templates}), with its byte program compiled: as a
          [do enqueue] payload its holes fill the program's gaps, and
          when they all yield text the payload is written with no tree;
          anywhere else it is its source *)
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

and clause =
  | For of (string * string option * expr) list
      (** variable, optional positional variable ([at $i]), domain *)
  | Let of (string * expr) list
  | Where of expr
  | Order_by of (expr * [ `Asc | `Desc ] * [ `Empty_least | `Empty_greatest ]) list

and direct_element = {
  tag : string;
  dname : Demaq_xml.Name.t;  (** [tag]'s local part, interned once *)
  dattrs : (string * attr_piece list) list;
  dcontent : content_piece list;
}

and attr_piece = A_text of string | A_expr of expr

and content_piece = C_text of string | C_expr of expr

(* A payload constructor compiled for the bXML encoder. Its static
   names are numbered in first-use pre-order (the order [Bxml.encode]
   numbers the constructed tree's names in), and [t_program] holds its
   bytes with a gap per dynamic attribute value and per text run that
   has a hole. Filling it evaluates the holes in constructor order into
   [t_items] item slots and the gap values; when every hole yields text,
   the program renders the payload, and otherwise the tree built from
   [t_root] and those values is encoded. Either way the bytes are those
   [Bxml.encode] gives for the tree the constructor builds. *)
and template = {
  t_source : direct_element;
  t_names : Demaq_xml.Name.t array;
  t_root : t_element;
  t_items : int;  (* content holes, numbered in constructor order *)
  t_program : Demaq_xml.Bxml.Program.t;
}

and t_element = {
  te_name : int;  (* index into [t_names] *)
  te_attrs : (int * t_attr) list;
  te_content : t_piece list;
}

and t_attr =
  | Ta_static of string
  | Ta_gap of int * attr_piece list  (* gap index; pieces with a hole *)

and t_piece =
  | T_text of string  (* static text with no hole beside it *)
  | T_run of int * t_part list
      (* gap index: adjacent static text and holes, which write one text
         token *)
  | T_element of t_element  (* a nested direct constructor *)

and t_part = P_text of string | P_hole of int * expr  (* item slot *)

(* The local part of a lexical QName: constructors drop the prefix. *)
let local_name tag =
  match String.index_opt tag ':' with
  | Some i -> String.sub tag (i + 1) (String.length tag - i - 1)
  | None -> tag

let lower_template source =
  let module P = Demaq_xml.Bxml.Program in
  let seen = ref [] and count = ref 0 in
  let id name =
    match List.find_opt (fun (n, _) -> Demaq_xml.Name.equal n name) !seen with
    | Some (_, i) -> i
    | None ->
      let i = !count in
      seen := (name, i) :: !seen;
      incr count;
      i
  in
  let b = P.builder () and gaps = ref 0 and items = ref 0 in
  let next r =
    let i = !r in
    incr r;
    i
  in
  let rec element d =
    let te_name = id d.dname in
    P.start_element b te_name ~attrs:(List.length d.dattrs);
    let te_attrs =
      List.map
        (fun (name, pieces) ->
          let aid = id (Demaq_xml.Name.intern (local_name name)) in
          if List.for_all (function A_text _ -> true | A_expr _ -> false) pieces then begin
            let s = String.concat "" (List.map (function A_text s -> s | A_expr _ -> "") pieces) in
            P.attribute b aid s;
            (aid, Ta_static s)
          end
          else begin
            let g = next gaps in
            P.attribute_gap b aid g;
            (aid, Ta_gap (g, pieces))
          end)
        d.dattrs
    in
    let te_content = content d.dcontent in
    P.end_element b;
    { te_name; te_attrs; te_content }
  (* Adjacent text and holes form one run; a nested constructor ends it. *)
  and content = function
    | [] -> []
    | C_expr (Direct_elem d) :: rest ->
      let child = element d in
      T_element child :: content rest
    | pieces ->
      let rec run acc = function
        | C_text s :: rest -> run (P_text s :: acc) rest
        | C_expr e :: rest when (match e with Direct_elem _ -> false | _ -> true) ->
          run (P_hole (next items, e) :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let parts, rest = run [] pieces in
      let piece =
        if List.for_all (function P_text _ -> true | P_hole _ -> false) parts then begin
          let s = String.concat "" (List.map (function P_text s -> s | P_hole _ -> "") parts) in
          P.text b s;
          T_text s
        end
        else begin
          let g = next gaps in
          P.text_gap b g;
          T_run (g, parts)
        end
      in
      piece :: content rest
  in
  let t_root = element source in
  let t_names = Array.of_list (List.rev_map fst !seen) in
  { t_source = source;
    t_names;
    t_root;
    t_items = !items;
    t_program = P.build b t_names }

(* Fold over all sub-expressions, used by the rewriter and the compiler's
   dependency analysis. *)
let rec fold_expr f acc e =
  let acc = f acc e in
  let fold_list = List.fold_left (fold_expr f) in
  match e with
  | Literal _ | Empty_seq | Var _ | Slot _ | Context_item | Root -> acc
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
  | Direct_elem d | Template { t_source = d; _ } ->
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

let map_direct m d =
  { d with
    dattrs =
      List.map
        (fun (n, pieces) ->
          (n, List.map (function A_text _ as t -> t | A_expr e -> A_expr (m e)) pieces))
        d.dattrs;
    dcontent = List.map (function C_text _ as t -> t | C_expr e -> C_expr (m e)) d.dcontent }

(* Bottom-up rewriting. *)
let rec map_expr f e =
  let m = map_expr f in
  let e' =
    match e with
    | Literal _ | Empty_seq | Var _ | Slot _ | Context_item | Root -> e
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
    | Direct_elem d -> Direct_elem (map_direct m d)
    | Template t ->
      (* the holes may change: lower the rewritten source again *)
      Template (lower_template (map_direct m t.t_source))
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

(* Lower every [do enqueue <direct constructor>] payload to a template:
   the last rewrite before a rule runs. *)
let lower_templates expr =
  map_expr
    (function
      | Enqueue { payload = Direct_elem d; queue; props } ->
        Enqueue { payload = Template (lower_template d); queue; props }
      | e -> e)
    expr
