(* Pretty-printer for the expression AST, used by plan explain output and
   in tests (parse/print round-trips). Output is valid QML surface syntax. *)

open Ast

let cmp_name = function
  | `Eq -> "=" | `Ne -> "!=" | `Lt -> "<" | `Le -> "<=" | `Gt -> ">" | `Ge -> ">="

let val_cmp_name = function
  | `Eq -> "eq" | `Ne -> "ne" | `Lt -> "lt" | `Le -> "le" | `Gt -> "gt" | `Ge -> "ge"

let binop_name = function
  | Or -> "or"
  | And -> "and"
  | Gen_cmp c -> cmp_name c
  | Val_cmp c -> val_cmp_name c
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "div"
  | Idiv -> "idiv"
  | Mod -> "mod"
  | Union -> "|"
  | Intersect -> "intersect"
  | Except -> "except"
  | Node_cmp `Is -> "is"
  | Node_cmp `Precedes -> "<<"
  | Node_cmp `Follows -> ">>"

let axis_name = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Self -> "self"
  | Parent -> "parent"
  | Attribute -> "attribute"

let test_name = function
  | Name_test n -> n
  | Wildcard -> "*"
  | Text_test -> "text()"
  | Node_kind_test -> "node()"
  | Comment_test -> "comment()"

let seq_type_name = function
  | St_empty -> "empty-sequence()"
  | St (it, occ) ->
    let base =
      match it with
      | It_atomic ty -> Value.atomic_type_name ty
      | It_untyped -> "xs:untypedAtomic"
      | It_anyatomic -> "xs:anyAtomicType"
      | It_element (Some n) -> Printf.sprintf "element(%s)" n
      | It_element None -> "element()"
      | It_attribute (Some n) -> Printf.sprintf "attribute(%s)" n
      | It_attribute None -> "attribute()"
      | It_text -> "text()"
      | It_document -> "document-node()"
      | It_node -> "node()"
      | It_item -> "item()"
    in
    base ^ (match occ with `One -> "" | `Optional -> "?" | `Star -> "*" | `Plus -> "+")

let escape_string s =
  String.concat "" (List.map (function '"' -> "\"\"" | c -> String.make 1 c)
                      (List.init (String.length s) (String.get s)))

let rec pp fmt e =
  match e with
  | Literal (Value.String s) -> Format.fprintf fmt "\"%s\"" (escape_string s)
  | Literal a -> Format.pp_print_string fmt (Value.string_of_atomic a)
  | Empty_seq -> Format.pp_print_string fmt "()"
  | Var v -> Format.fprintf fmt "$%s" v
  | Slot k -> Format.fprintf fmt "$__plan%d" k
  | Context_item -> Format.pp_print_string fmt "."
  | Root -> Format.pp_print_string fmt "/"
  | Sequence es ->
    Format.fprintf fmt "(%a)"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp)
      es
  | Path (Root, b) -> Format.fprintf fmt "/%a" pp b
  | Path (a, (Axis_step (Descendant_or_self, Node_kind_test, []) as _dos)) ->
    Format.fprintf fmt "%a//" pp_path_base a
  | Path (Path (a, Axis_step (Descendant_or_self, Node_kind_test, [])), b) ->
    (match a with
     | Root -> Format.fprintf fmt "//%a" pp b
     | _ -> Format.fprintf fmt "%a//%a" pp_path_base a pp b)
  | Path (a, b) -> Format.fprintf fmt "%a/%a" pp_path_base a pp b
  | Axis_step (Child, test, preds) ->
    Format.fprintf fmt "%s%a" (test_name test) pp_preds preds
  | Axis_step (Attribute, test, preds) ->
    Format.fprintf fmt "@%s%a" (test_name test) pp_preds preds
  | Axis_step (Parent, Node_kind_test, preds) ->
    Format.fprintf fmt "..%a" pp_preds preds
  | Axis_step (axis, test, preds) ->
    Format.fprintf fmt "%s::%s%a" (axis_name axis) (test_name test) pp_preds preds
  | Filter (e, preds) -> Format.fprintf fmt "%a%a" pp_primary e pp_preds preds
  | Call (name, args) ->
    Format.fprintf fmt "%s(%a)" name
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp)
      args
  | If (c, t, Empty_seq) -> Format.fprintf fmt "if (%a) then %a else ()" pp c pp t
  | If (c, t, e) -> Format.fprintf fmt "if (%a) then %a else %a" pp c pp t pp e
  | Flwor (clauses, ret) ->
    List.iter (pp_clause fmt) clauses;
    Format.fprintf fmt "return %a" pp ret
  | Quantified (q, binds, sat) ->
    Format.fprintf fmt "%s %a satisfies %a"
      (match q with `Some -> "some" | `Every -> "every")
      pp_binds binds pp sat
  | Binary (op, a, b) ->
    Format.fprintf fmt "(%a %s %a)" pp a (binop_name op) pp b
  | Neg a -> Format.fprintf fmt "-%a" pp a
  | Range (a, b) -> Format.fprintf fmt "(%a to %a)" pp a pp b
  | Direct_elem d | Template { t_source = d; _ } -> pp_ctor fmt d
  | Computed_elem (name, content) ->
    Format.fprintf fmt "element {%a} {%a}" pp name pp content
  | Computed_attr (name, value) ->
    Format.fprintf fmt "attribute {%a} {%a}" pp name pp value
  | Computed_text content -> Format.fprintf fmt "text {%a}" pp content
  | Cast (e, ty, `Cast) ->
    Format.fprintf fmt "(%a cast as %s)" pp e (Value.atomic_type_name ty)
  | Cast (e, ty, `Castable) ->
    Format.fprintf fmt "(%a castable as %s)" pp e (Value.atomic_type_name ty)
  | Instance_of (e, st) ->
    Format.fprintf fmt "(%a instance of %s)" pp e (seq_type_name st)
  | Treat_as (e, st) ->
    Format.fprintf fmt "(%a treat as %s)" pp e (seq_type_name st)
  | Enqueue { payload; queue; props } ->
    Format.fprintf fmt "do enqueue %a into %s" pp payload queue;
    List.iter (fun (n, e) -> Format.fprintf fmt " with %s value %a" n pp e) props
  | Reset None -> Format.pp_print_string fmt "do reset"
  | Reset (Some (s, k)) -> Format.fprintf fmt "do reset slicing %s key %a" s pp k

and pp_path_base fmt = function
  | Root -> () (* a leading "/" is printed by the Path case *)
  | e -> pp fmt e

and pp_primary fmt = function
  | ( Literal _ | Var _ | Slot _ | Context_item | Call _ | Sequence _ | Empty_seq | Direct_elem _
    | Template _ ) as e ->
    pp fmt e
  | e -> Format.fprintf fmt "(%a)" pp e

and pp_preds fmt preds =
  List.iter (fun p -> Format.fprintf fmt "[%a]" pp p) preds

and pp_binds fmt binds =
  Format.pp_print_list
    ~pp_sep:(fun f () -> Format.fprintf f ", ")
    (fun f (v, e) -> Format.fprintf f "$%s in %a" v pp e)
    fmt binds

and pp_for_binds fmt binds =
  Format.pp_print_list
    ~pp_sep:(fun f () -> Format.fprintf f ", ")
    (fun f (v, pos, e) ->
      match pos with
      | Some p -> Format.fprintf f "$%s at $%s in %a" v p pp e
      | None -> Format.fprintf f "$%s in %a" v pp e)
    fmt binds

and pp_clause fmt = function
  | For binds ->
    Format.fprintf fmt "for %a " pp_for_binds binds
  | Let binds ->
    Format.fprintf fmt "let %a "
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.fprintf f ", ")
         (fun f (v, e) -> Format.fprintf f "$%s := %a" v pp e))
      binds
  | Where e -> Format.fprintf fmt "where %a " pp e
  | Order_by keys ->
    Format.fprintf fmt "order by %a "
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.fprintf f ", ")
         (fun f (e, dir, empty_policy) ->
           Format.fprintf f "%a%s%s" pp e
             (match dir with `Asc -> "" | `Desc -> " descending")
             (match empty_policy with
              | `Empty_least -> ""
              | `Empty_greatest -> " empty greatest")))
      keys

and pp_ctor fmt d =
  Format.fprintf fmt "<%s" d.tag;
  List.iter
    (fun (name, pieces) ->
      Format.fprintf fmt " %s=\"" name;
      List.iter
        (function
          | A_text s -> Format.pp_print_string fmt s
          | A_expr e -> Format.fprintf fmt "{%a}" pp e)
        pieces;
      Format.fprintf fmt "\"")
    d.dattrs;
  if d.dcontent = [] then Format.fprintf fmt "/>"
  else begin
    Format.fprintf fmt ">";
    List.iter
      (function
        | C_text s -> Format.pp_print_string fmt s
        | C_expr (Direct_elem d') -> pp_ctor fmt d'
        | C_expr e -> Format.fprintf fmt "{%a}" pp e)
      d.dcontent;
    Format.fprintf fmt "</%s>" d.tag
  end

let to_string e = Format.asprintf "%a" pp e
