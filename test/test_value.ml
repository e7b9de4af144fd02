(* Direct tests for the XQuery value model: casts, effective boolean
   value, comparison semantics, arithmetic promotion. These back the
   via-evaluator tests in test_xquery.ml with table-style coverage of the
   Value module itself. *)

module Value = Demaq.Value

let check = Alcotest.check
let bool_ = Alcotest.bool
let string_ = Alcotest.string

open Value

(* ---- casts ---- *)

let cast_ok ty a expected () =
  match cast ty a with
  | Ok r -> check string_ "cast result" expected (string_of_atomic r)
  | Error e -> Alcotest.failf "cast failed: %s" e

let cast_fails ty a () =
  match cast ty a with
  | Ok r -> Alcotest.failf "expected failure, got %s" (string_of_atomic r)
  | Error _ -> ()

let cast_cases =
  [
    ("string of int", cast_ok T_string (Integer 42) "42");
    ("string of bool", cast_ok T_string (Boolean true) "true");
    ("string of decimal", cast_ok T_string (Decimal 2.5) "2.5");
    ("int of string", cast_ok T_integer (String " 7 ") "7");
    ("int of decimal truncates", cast_ok T_integer (Decimal 3.9) "3");
    ("int of bool", cast_ok T_integer (Boolean true) "1");
    ("int of untyped", cast_ok T_integer (Untyped "12") "12");
    ("decimal of int", cast_ok T_decimal (Integer 5) "5");
    ("decimal of string", cast_ok T_decimal (String "2.25") "2.25");
    ("bool of one", cast_ok T_boolean (Integer 1) "true");
    ("bool of zero", cast_ok T_boolean (Integer 0) "false");
    ("bool of 'true'", cast_ok T_boolean (String "true") "true");
    ("bool of '0'", cast_ok T_boolean (Untyped "0") "false");
    ("bool of nonzero decimal", cast_ok T_boolean (Decimal 0.5) "true");
    ("int of junk fails", cast_fails T_integer (String "pear"));
    ("decimal of junk fails", cast_fails T_decimal (Untyped ""));
    ("bool of junk fails", cast_fails T_boolean (String "maybe"));
  ]

let test_atomic_type_names () =
  List.iter
    (fun (name, expected) ->
      match atomic_type_of_string name with
      | Ok ty -> check string_ name expected (atomic_type_name ty)
      | Error e -> Alcotest.fail e)
    [
      ("xs:string", "xs:string"); ("string", "xs:string");
      ("xs:integer", "xs:integer"); ("int", "xs:integer"); ("long", "xs:integer");
      ("xs:decimal", "xs:decimal"); ("double", "xs:decimal"); ("float", "xs:decimal");
      ("xs:boolean", "xs:boolean");
    ];
  check bool_ "unknown type" true (Result.is_error (atomic_type_of_string "xs:date"))

(* ---- effective boolean value ---- *)

let test_ebv_table () =
  let t v = check bool_ "ebv true" true (ebv v)
  and f v = check bool_ "ebv false" false (ebv v) in
  f [];
  t [ Atom (Boolean true) ];
  f [ Atom (Boolean false) ];
  t [ Atom (String "x") ];
  f [ Atom (String "") ];
  f [ Atom (Untyped "") ];
  t [ Atom (Integer 1) ];
  f [ Atom (Integer 0) ];
  f [ Atom (Decimal 0.0) ];
  f [ Atom (Decimal Float.nan) ];
  t [ Atom (Decimal 0.1) ];
  (* any node-first sequence is true regardless of length *)
  let n = Demaq.Xquery.Eval.node_of_tree (Demaq.xml "<a/>") in
  t [ Node n ];
  t [ Node n; Atom (Integer 0) ];
  match ebv [ Atom (Integer 1); Atom (Integer 2) ] with
  | _ -> Alcotest.fail "expected type error"
  | exception Type_error _ -> ()

(* ---- comparisons ---- *)

let test_compare_atomic_matrix () =
  let lt a b = check bool_ "lt" true (compare_atomic a b < 0)
  and eq a b = check bool_ "eq" true (compare_atomic a b = 0) in
  eq (Integer 3) (Integer 3);
  lt (Integer 3) (Integer 4);
  eq (Integer 3) (Decimal 3.0);
  lt (Decimal 3.5) (Integer 4);
  (* untyped next to numbers compares numerically *)
  eq (Untyped "10") (Integer 10);
  lt (Integer 9) (Untyped "10");
  (* strings compare lexicographically — "10" < "9" *)
  lt (String "10") (String "9");
  eq (String "a") (Untyped "a");
  lt (Boolean false) (Boolean true)

let test_general_compare_existential () =
  let seq l = List.map (fun i -> Atom (Integer i)) l in
  check bool_ "exists equal" true (general_compare `Eq (seq [ 1; 2 ]) (seq [ 2; 9 ]));
  check bool_ "none equal" false (general_compare `Eq (seq [ 1; 2 ]) (seq [ 3 ]));
  check bool_ "empty never" false (general_compare `Eq [] (seq [ 1 ]));
  (* ne is existential too: (1,2) != (1) holds because 2 != 1 *)
  check bool_ "ne existential" true (general_compare `Ne (seq [ 1; 2 ]) (seq [ 1 ]))

let test_arith_promotion () =
  let show v = String.concat ";" (List.map string_of_atomic (atomize v)) in
  check string_ "int+int stays int" "5"
    (show (arith `Add [ Atom (Integer 2) ] [ Atom (Integer 3) ]));
  check string_ "int+decimal promotes" "5.5"
    (show (arith `Add [ Atom (Integer 2) ] [ Atom (Decimal 3.5) ]));
  check string_ "untyped ints" "6"
    (show (arith `Mul [ Atom (Untyped "2") ] [ Atom (Untyped "3") ]));
  check string_ "div always decimal-capable" "2.5"
    (show (arith `Div [ Atom (Integer 5) ] [ Atom (Integer 2) ]));
  check string_ "empty propagates" "" (show (arith `Add [] [ Atom (Integer 1) ]));
  (match arith `Add [ Atom (String "x") ] [ Atom (Integer 1) ] with
   | _ -> Alcotest.fail "expected type error"
   | exception Type_error _ -> ());
  match arith `Idiv [ Atom (Integer 1) ] [ Atom (Integer 0) ] with
  | _ -> Alcotest.fail "expected division error"
  | exception Type_error _ -> ()

let test_doc_order_dedup () =
  let doc = Demaq.xml "<r><a/><b/></r>" in
  let n = Demaq.Xquery.Eval.node_of_tree doc in
  let kids = Demaq.Tree.children n in
  let a = List.nth kids 0 and b = List.nth kids 1 in
  let v = doc_order_dedup [ Node b; Node a; Node b ] in
  check bool_ "sorted and deduped" true
    (match v with
     | [ Node x; Node y ] -> Demaq.Tree.same_node x a && Demaq.Tree.same_node y b
     | _ -> false);
  (* mixed sequences pass through untouched *)
  let mixed = [ Atom (Integer 1); Node a ] in
  check bool_ "mixed unchanged" true (doc_order_dedup mixed == mixed)

let test_decimal_rendering () =
  check string_ "integral decimal" "440" (string_of_atomic (Decimal 440.00000000000006));
  check string_ "fraction" "0.25" (string_of_atomic (Decimal 0.25));
  check string_ "negative" "-3" (string_of_atomic (Decimal (-3.0)))

let prop_integer_rendering =
  QCheck.Test.make ~name:"integer rendering = string_of_int" ~count:2000
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         oneof
           [
             int;
             small_signed_int;
             oneofl [ min_int; max_int; min_int + 1; 0; -1; 9; 10; -9; -10; 99; 100 ];
           ]))
    (fun i ->
      string_of_atomic (Integer i) = string_of_int i
      && (Float.abs (float i) >= 1e15 || string_of_atomic (Decimal (float i)) = string_of_int i))

let suite =
  List.map (fun (n, f) -> (n, `Quick, f)) cast_cases
  @ [
      ("atomic type names", `Quick, test_atomic_type_names);
      ("effective boolean value table", `Quick, test_ebv_table);
      ("compare_atomic matrix", `Quick, test_compare_atomic_matrix);
      ("general comparison is existential", `Quick, test_general_compare_existential);
      ("arithmetic promotion", `Quick, test_arith_promotion);
      ("doc order dedup", `Quick, test_doc_order_dedup);
      ("decimal rendering", `Quick, test_decimal_rendering);
      QCheck_alcotest.to_alcotest prop_integer_rendering;
    ]
