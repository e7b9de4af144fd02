module Tree = Demaq_xml.Tree

type atomic =
  | Boolean of bool
  | Integer of int
  | Decimal of float
  | String of string
  | Untyped of string

type item = Node of Tree.node | Atom of atomic

type t = item list

type atomic_type = T_string | T_integer | T_decimal | T_boolean

let atomic_type_of_string s =
  let s =
    if String.length s > 3 && String.sub s 0 3 = "xs:" then
      String.sub s 3 (String.length s - 3)
    else s
  in
  match s with
  | "string" -> Ok T_string
  | "integer" | "int" | "long" -> Ok T_integer
  | "decimal" | "double" | "float" -> Ok T_decimal
  | "boolean" -> Ok T_boolean
  | other -> Error ("unsupported atomic type: xs:" ^ other)

let atomic_type_name = function
  | T_string -> "xs:string"
  | T_integer -> "xs:integer"
  | T_decimal -> "xs:decimal"
  | T_boolean -> "xs:boolean"

(* [string_of_int], without its printf machinery: an integer hole of a
   [do enqueue] template is formatted once per message. Digits are taken
   from the non-positive value, as [-min_int] overflows. *)
let rec digits_width n w = if n > -10 then w else digits_width (n / 10) (w + 1)

let rec put_digits b n pos =
  Bytes.unsafe_set b pos (Char.unsafe_chr (48 - (n mod 10)));
  if n <= -10 then put_digits b (n / 10) (pos - 1)

let decimal_string i =
  let n = if i < 0 then i else -i in
  let b = Bytes.create ((if i < 0 then 1 else 0) + digits_width n 1) in
  put_digits b n (Bytes.length b - 1);
  if i < 0 then Bytes.unsafe_set b 0 '-';
  Bytes.unsafe_to_string b

let string_of_atomic = function
  | Boolean b -> if b then "true" else "false"
  | Integer i -> decimal_string i
  | Decimal f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      decimal_string (int_of_float f)
    else Printf.sprintf "%.12g" f
  | String s | Untyped s -> s


let number_of_atomic = function
  | Boolean b -> if b then 1.0 else 0.0
  | Integer i -> float_of_int i
  | Decimal f -> f
  | String s | Untyped s -> (
    match float_of_string_opt (String.trim s) with
    | Some f -> f
    | None -> Float.nan)

let cast ty a =
  let s = string_of_atomic a in
  match ty with
  | T_string -> Ok (String s)
  | T_integer -> (
    match a with
    | Integer _ -> Ok a
    | Decimal f -> Ok (Integer (int_of_float f))
    | Boolean b -> Ok (Integer (if b then 1 else 0))
    | String _ | Untyped _ -> (
      match int_of_string_opt (String.trim s) with
      | Some i -> Ok (Integer i)
      | None -> Error (Printf.sprintf "cannot cast %S to xs:integer" s)))
  | T_decimal -> (
    match a with
    | Decimal _ -> Ok a
    | Integer i -> Ok (Decimal (float_of_int i))
    | Boolean b -> Ok (Decimal (if b then 1.0 else 0.0))
    | String _ | Untyped _ -> (
      match float_of_string_opt (String.trim s) with
      | Some f -> Ok (Decimal f)
      | None -> Error (Printf.sprintf "cannot cast %S to xs:decimal" s)))
  | T_boolean -> (
    match a with
    | Boolean _ -> Ok a
    | Integer i -> Ok (Boolean (i <> 0))
    | Decimal f -> Ok (Boolean (f <> 0.0 && not (Float.is_nan f)))
    | String _ | Untyped _ -> (
      match String.trim s with
      | "true" | "1" -> Ok (Boolean true)
      | "false" | "0" -> Ok (Boolean false)
      | other -> Error (Printf.sprintf "cannot cast %S to xs:boolean" other)))

let atomize_item = function
  | Atom a -> a
  | Node n -> Untyped (Tree.string_value n)

let atomize v = List.map atomize_item v

let string_value = function
  | [] -> ""
  | item :: _ -> string_of_atomic (atomize_item item)

exception Type_error of string

let ebv = function
  | [] -> false
  | [ Atom (Boolean b) ] -> b
  | [ Atom (String s) ] | [ Atom (Untyped s) ] -> String.length s > 0
  | [ Atom (Integer i) ] -> i <> 0
  | [ Atom (Decimal f) ] -> f <> 0.0 && not (Float.is_nan f)
  | Node _ :: _ -> true
  | _ -> raise (Type_error "effective boolean value of a multi-item sequence")

let is_numeric = function
  | Integer _ | Decimal _ -> true
  | Boolean _ | String _ | Untyped _ -> false

let compare_atomic a b =
  match a, b with
  | Boolean x, Boolean y -> Bool.compare x y
  | Integer x, Integer y -> Int.compare x y
  | (Integer _ | Decimal _), (Integer _ | Decimal _) ->
    Float.compare (number_of_atomic a) (number_of_atomic b)
  | (Untyped _ | String _), x when is_numeric x ->
    Float.compare (number_of_atomic a) (number_of_atomic b)
  | x, (Untyped _ | String _) when is_numeric x ->
    Float.compare (number_of_atomic a) (number_of_atomic b)
  | _ -> String.compare (string_of_atomic a) (string_of_atomic b)

let apply_op op c =
  match op with
  | `Eq -> c = 0
  | `Ne -> c <> 0
  | `Lt -> c < 0
  | `Le -> c <= 0
  | `Gt -> c > 0
  | `Ge -> c >= 0

let general_compare op l r =
  let la = atomize l and ra = atomize r in
  List.exists
    (fun a -> List.exists (fun b -> apply_op op (compare_atomic a b)) ra)
    la

let value_compare op l r =
  match atomize l, atomize r with
  | [], _ | _, [] -> []
  | [ a ], [ b ] -> [ Atom (Boolean (apply_op op (compare_atomic a b))) ]
  | _ -> raise (Type_error "value comparison over multi-item sequence")

let arith op l r =
  match atomize l, atomize r with
  | [], _ | _, [] -> []
  | [ a ], [ b ] -> (
    let fa = number_of_atomic a and fb = number_of_atomic b in
    if Float.is_nan fa || Float.is_nan fb then
      raise (Type_error "arithmetic on non-numeric operand");
    let both_int =
      match a, b with
      | (Integer _ | Untyped _ | String _), (Integer _ | Untyped _ | String _) ->
        Float.is_integer fa && Float.is_integer fb
      | _ -> false
    in
    match op with
    | `Add ->
      if both_int then [ Atom (Integer (int_of_float fa + int_of_float fb)) ]
      else [ Atom (Decimal (fa +. fb)) ]
    | `Sub ->
      if both_int then [ Atom (Integer (int_of_float fa - int_of_float fb)) ]
      else [ Atom (Decimal (fa -. fb)) ]
    | `Mul ->
      if both_int then [ Atom (Integer (int_of_float fa * int_of_float fb)) ]
      else [ Atom (Decimal (fa *. fb)) ]
    | `Div -> [ Atom (Decimal (fa /. fb)) ]
    | `Idiv ->
      if fb = 0.0 then raise (Type_error "integer division by zero")
      else [ Atom (Integer (int_of_float (Float.trunc (fa /. fb)))) ]
    | `Mod ->
      if fb = 0.0 then raise (Type_error "modulo by zero")
      else if both_int then
        [ Atom (Integer (int_of_float fa mod int_of_float fb)) ]
      else [ Atom (Decimal (Float.rem fa fb)) ])
  | _ -> raise (Type_error "arithmetic over multi-item sequence")

let all_nodes v = List.for_all (function Node _ -> true | Atom _ -> false) v

(* Strictly increasing in document order: sorted and free of duplicates. *)
let rec in_doc_order = function
  | Node a :: (Node b :: _ as rest) -> Tree.doc_order a b < 0 && in_doc_order rest
  | [ Node _ ] | [] -> true
  | Atom _ :: _ | Node _ :: Atom _ :: _ -> false

let doc_order_dedup v =
  if in_doc_order v || not (all_nodes v) then v
  else
    let nodes =
      List.filter_map (function Node n -> Some n | Atom _ -> None) v
    in
    let sorted = List.stable_sort Tree.doc_order nodes in
    (* tail-recursive: keep the last of each run of the same node *)
    let rec dedup acc = function
      | a :: (b :: _ as rest) ->
        if Tree.same_node a b then dedup acc rest else dedup (Node a :: acc) rest
      | [ a ] -> List.rev (Node a :: acc)
      | [] -> List.rev acc
    in
    dedup [] sorted

let equal_item a b =
  match a, b with
  | Atom x, Atom y -> x = y
  | Node x, Node y -> (
    match Tree.node_tree x, Tree.node_tree y with
    | Some tx, Some ty -> Tree.equal_tree tx ty
    | None, None -> Tree.string_value x = Tree.string_value y
    | _ -> false)
  | (Atom _ | Node _), _ -> false

let equal a b =
  List.length a = List.length b && List.for_all2 equal_item a b

let pp_item fmt = function
  | Atom a -> Format.pp_print_string fmt (string_of_atomic a)
  | Node n -> (
    match Tree.node_tree n with
    | Some t -> Tree.pp_tree fmt t
    | None -> Format.pp_print_string fmt (Tree.string_value n))

let pp fmt v =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_item)
    v

let to_display_string v = Format.asprintf "%a" pp v
