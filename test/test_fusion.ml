(* Differential tests for the path evaluator's fast paths: the compiler's
   descendant-step fusion must select exactly what the unfused path
   selects, node for node, and the allocation-free document order must
   agree with the comparator it replaced. test_plan.ml's oracle cannot
   catch a bad fusion, as both of its sides read the rewritten rule
   body; here the original and the fused expression are evaluated side
   by side on the same document. *)

module Tree = Demaq.Xml.Tree
module Ast = Demaq.Xquery.Ast
module Value = Demaq.Xquery.Value
module Eval = Demaq.Xquery.Eval
module Context = Demaq.Xquery.Context
module Parser = Demaq.Xquery.Parser
module Pp = Demaq.Xquery.Pp
module Compiler = Demaq.Lang.Compiler

let check = Alcotest.check
let string_ = Alcotest.string

(* ---- random documents: repeated names, attributes named like elements,
   text and comments ---- *)

let gen_doc_tree =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "t"; "u" ] in
  let text = oneofl [ "x"; "7"; "" ] in
  let attrs =
    map
      (List.sort_uniq (fun (a, _) (b, _) -> compare a b))
      (small_list (pair (oneofl [ "t"; "k" ]) text))
  in
  let elem self depth =
    map3 (fun n attrs kids -> Tree.elem n ~attrs kids) name attrs
      (list_size (int_bound 4) (self (depth - 1)))
  in
  let root =
    fix (fun self depth ->
        if depth = 0 then map Tree.text text
        else
          frequency
            [
              (1, map Tree.text text);
              (1, map (fun s -> Tree.Comment s) text);
              (4, elem self depth);
            ])
  in
  map3 (fun n attrs kids -> Tree.elem n ~attrs kids) name attrs
    (list_size (int_range 1 4) (root 3))

(* ---- random paths ---- *)

let gen_path =
  let open QCheck.Gen in
  let test =
    oneofl [ "a"; "b"; "t"; "u"; "*"; "node()"; "text()"; "@t"; "@k"; "@*"; ".."; "." ]
  in
  let pred =
    frequency
      [
        (6, return "");
        (1, oneofl [ "[1]"; "[2]"; "[last()]"; "[position() > 1]" ]);
        (1, oneofl [ "[@k]"; "[u]"; "[not(t)]"; "[.//t]"; "[count(*) > 1]"; "[@t = \"x\"]" ]);
      ]
  in
  let step = map2 ( ^ ) test pred in
  let sep = frequency [ (1, return "/"); (1, return "//") ] in
  let rest = list_size (int_range 1 4) (map2 ( ^ ) sep step) in
  let start =
    oneofl
      [
        "";  (* a path from the root: "/" or "//" then the steps *)
        ".";
        "a";  (* relative: a//t/u and friends *)
        "(//a | //b)";  (* a multi-node context in document order *)
        "(//b, //a, //b)";  (* out of order, with duplicates *)
        "//t[1]";
      ]
  in
  map2 (fun s r -> s ^ String.concat "" r) start rest

type outcome = Nodes of Value.t | Failed of string

let run_expr context expr =
  let env = Context.make ~item:(Value.Node context) () in
  match Eval.eval env expr with
  | v -> Nodes v
  | exception Eval.Eval_error msg -> Failed msg

let same_item a b =
  match a, b with
  | Value.Node x, Value.Node y -> Tree.same_node x y
  | Value.Atom x, Value.Atom y -> x = y
  | _ -> false

let same_outcome a b =
  match a, b with
  | Nodes x, Nodes y -> List.length x = List.length y && List.for_all2 same_item x y
  | Failed x, Failed y -> String.equal x y
  | _ -> false

let show = function
  | Nodes v -> Value.to_display_string v
  | Failed msg -> "error: " ^ msg

let prop_fusion_preserves_results =
  QCheck.Test.make ~name:"fused path selects the same nodes" ~count:1000
    (QCheck.make
       ~print:(fun (t, p, _) -> Printf.sprintf "%s on %s" p (Demaq.xml_to_string t))
       QCheck.Gen.(triple gen_doc_tree gen_path bool))
    (fun (tree, src, at_root) ->
      let expr = Parser.parse src in
      let fused = Compiler.fuse_descendant_steps expr in
      let context =
        if at_root then Eval.doc_node_of_tree tree else Eval.node_of_tree tree
      in
      let before = run_expr context expr and after = run_expr context fused in
      same_outcome before after
      || QCheck.Test.fail_reportf "%s\n  original %s\n  fused %s (%s)" src
           (show before) (show after)
           (Pp.to_string fused))

(* ---- document order against the comparator it replaced ---- *)

type step = Attr of int | Child of int

(* Every node of the document with its forward path from the document
   node, enumerated through the child and attribute axes. *)
let all_nodes doc =
  let rec walk path n acc =
    let acc = (n, List.rev path) :: acc in
    let acc =
      List.fold_left
        (fun (i, acc) a -> (i + 1, (a, List.rev (Attr i :: path)) :: acc))
        (0, acc) (Tree.attributes n)
      |> snd
    in
    List.fold_left
      (fun (i, acc) c -> (i + 1, walk (Child i :: path) c acc))
      (0, acc) (Tree.children n)
    |> snd
  in
  List.rev (walk [] (Tree.root_node doc) [])

(* The previous [Tree.doc_order] body, on forward paths: lexicographic,
   a prefix (ancestor) first, attributes before children. *)
let reference_order pa pb =
  let step_rank = function Attr i -> (0, i) | Child i -> (1, i) in
  let rec cmp xs ys =
    match xs, ys with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs', y :: ys' ->
      let c = compare (step_rank x) (step_rank y) in
      if c <> 0 then c else cmp xs' ys'
  in
  cmp pa pb

let sign c = compare c 0

let prop_doc_order_agrees =
  QCheck.Test.make ~name:"doc_order agrees with the reference comparator" ~count:200
    (QCheck.make ~print:Demaq.xml_to_string gen_doc_tree)
    (fun tree ->
      let doc = Tree.doc tree in
      let nodes = all_nodes doc in
      List.for_all
        (fun (a, pa) ->
          List.for_all
            (fun (b, pb) -> sign (Tree.doc_order a b) = sign (reference_order pa pb))
            nodes)
        nodes
      &&
      (* across documents the document id decides *)
      let other = Tree.root_node (Tree.doc tree) in
      List.for_all
        (fun (a, _) ->
          sign (Tree.doc_order a other)
          = sign (compare (Tree.doc_id doc) (Tree.doc_id (Tree.node_document other))))
        nodes)

let prop_descendants_walk =
  QCheck.Test.make ~name:"descendants = recursive children, in order" ~count:300
    (QCheck.make ~print:Demaq.xml_to_string gen_doc_tree)
    (fun tree ->
      let root = Tree.root_node (Tree.doc tree) in
      let rec reference n = List.concat_map (fun c -> c :: reference c) (Tree.children n) in
      let walked = Tree.descendants root and expected = reference root in
      List.length walked = List.length expected
      && List.for_all2 Tree.same_node walked expected)

(* ---- the rewrite's shape ---- *)

let fused src = Pp.to_string (Compiler.fuse_descendant_steps (Parser.parse src))

let test_fusion_shape () =
  check string_ "leading //" "/descendant::t" (fused "//t");
  check string_ "inner //" "a/descendant::t/u" (fused "a//t/u");
  check string_ "every // of a path" "/descendant::a/descendant::b" (fused "//a//b");
  check string_ "predicate on the child step: not fused" "//t[1]" (fused "//t[1]");
  check string_ "attribute step: not fused" "//@t" (fused "//@t")

let suite =
  [
    ("fusion rewrites only predicate-free child steps", `Quick, test_fusion_shape);
    QCheck_alcotest.to_alcotest prop_fusion_preserves_results;
    QCheck_alcotest.to_alcotest prop_doc_order_agrees;
    QCheck_alcotest.to_alcotest prop_descendants_walk;
  ]
