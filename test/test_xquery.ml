(* Tests for lib/xquery: parser, evaluator, function library, updates. *)

module Tree = Demaq.Xml.Tree
module Xml_parser = Demaq.Xml.Parser
module Value = Demaq.Xquery.Value
module Ast = Demaq.Xquery.Ast
module Parser = Demaq.Xquery.Parser
module Eval = Demaq.Xquery.Eval
module Context = Demaq.Xquery.Context
module Update = Demaq.Xquery.Update
module Pp = Demaq.Xquery.Pp

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let default_ctx =
  Xml_parser.parse
    "<offerRequest><requestID>r1</requestID><customerID>c7</customerID><items><item \
     n=\"1\">glue</item><item n=\"2\">paint</item><item n=\"3\">glue</item></items></offerRequest>"

let eval ?(ctx = default_ctx) ?vars src = fst (Eval.run ?vars ~context:ctx src)
let eval_updates ?(ctx = default_ctx) src = snd (Eval.run ~context:ctx src)

(* Render a value compactly for assertions. *)
let show v =
  String.concat ";"
    (List.map
       (function
         | Value.Atom a -> Value.string_of_atomic a
         | Value.Node n -> (
           match Tree.node_tree n with
           | Some t -> Demaq.Xml.Serializer.to_string t
           | None -> Tree.string_value n))
       v)

let expect ?ctx src expected () = check string_ src expected (show (eval ?ctx src))

let expect_error src () =
  match eval src with
  | _ -> Alcotest.failf "expected evaluation error for %s" src
  | exception Context.Eval_error _ -> ()

let expect_syntax_error src () =
  match Parser.parse src with
  | _ -> Alcotest.failf "expected syntax error for %s" src
  | exception Parser.Syntax_error _ -> ()

(* ---- literals, arithmetic, comparisons ---- *)

let atoms =
  [
    ("integer literal", expect "42" "42");
    ("decimal literal", expect "4.5" "4.5");
    ("string literal double", expect {|"hi"|} "hi");
    ("string literal single", expect "'hi'" "hi");
    ("string escape doubling", expect {|"a""b"|} {|a"b|});
    ("string entity", expect {|"a&lt;b"|} "a<b");
    ("empty sequence", expect "()" "");
    ("sequence", expect "(1, 2, 3)" "1;2;3");
    ("nested sequence flattens", expect "(1, (2, 3))" "1;2;3");
    ("addition", expect "1 + 2" "3");
    ("precedence", expect "1 + 2 * 3" "7");
    ("subtraction needs spaces", expect "5 - 3" "2");
    ("division decimal", expect "7 div 2" "3.5");
    ("integer division", expect "7 idiv 2" "3");
    ("modulo", expect "7 mod 2" "1");
    ("unary minus", expect "-(3)" "-3");
    ("unary minus literal", expect "- 3" "-3");
    ("float arithmetic", expect "1.5 + 1" "2.5");
    ("arithmetic with empty is empty", expect "1 + ()" "");
    ("range", expect "2 to 5" "2;3;4;5");
    ("empty range", expect "5 to 2" "");
    ("general eq", expect "1 = 1" "true");
    ("general existential", expect "(1, 2, 3) = (3, 4)" "true");
    ("general existential false", expect "(1, 2) = (3, 4)" "false");
    ("general lt over strings", expect {|"abc" < "abd"|} "true");
    ("untyped coerced numeric", expect "//item[1]/@n = 1" "true");
    ("value comparison", expect "1 eq 1" "true");
    ("value comparison empty", expect "() eq 1" "");
    ("and or", expect "true() and (false() or true())" "true");
    ("and shortcut semantics", expect "false() and 1" "false");
    ("string comparison via =", expect "//customerID = 'c7'" "true");
  ]

let test_value_comparison_multi = expect_error "(1,2) eq 1"

(* ---- paths ---- *)

let paths =
  [
    ("descendant shortcut", expect "//requestID" "<requestID>r1</requestID>");
    ("child path", expect "/offerRequest/customerID" "<customerID>c7</customerID>");
    ("relative from context", expect "items/item[1]" {|<item n="1">glue</item>|});
    ("context item", expect "string(./requestID)" "r1");
    ("wildcard", expect "count(/offerRequest/*)" "3");
    ("attribute axis", expect "string(//item[2]/@n)" "2");
    ("attribute wildcard", expect "count(//item[1]/@*)" "1");
    ("parent step", expect "count(//item[1]/../item)" "3");
    ("text test", expect "//item[1]/text()" "glue");
    ("node test counts text", expect "count(//item[1]/node())" "1");
    ("full axis syntax", expect "count(child::items/child::item)" "3");
    ("descendant axis", expect "count(descendant::item)" "3");
    ("self axis", expect "count(self::node())" "1");
    ("positional predicate", expect "string(//item[2])" "paint");
    ("last()", expect "string(//item[last()])" "glue");
    ("position()", expect "string-join(//item[position() > 1], ',')" "paint,glue");
    ("predicate filter", expect "count(//item[. = 'glue'])" "2");
    ("chained predicates", expect "string(//item[. = 'glue'][2])" "glue");
    ("sequences keep duplicates", expect "count((//item, //item))" "6");
    ("union", expect "count(//item | //customerID)" "4");
    ("union dedup", expect "count(//item | //item)" "3");
    ("absolute in predicate", expect "count(//item[/offerRequest])" "3");
    ("path over sequence", expect "count((//items, //items)/item)" "3");
    ("filter on parenthesized", expect "string((//item)[2])" "paint");
    ("numeric predicate via arithmetic", expect "string(//item[1 + 1])" "paint");
  ]

let test_path_atomic_error = expect_error "(1)/a"

(* ---- control flow ---- *)

let control =
  [
    ("if then else", expect "if (1 = 1) then 'y' else 'n'" "y");
    ("if without else", expect "if (1 = 2) then 'y'" "");
    ("if EBV of nodes", expect "if (//item) then 'has' else 'none'" "has");
    ("let", expect "let $x := 2 return $x * 3" "6");
    ("let shadowing", expect "let $x := 1 return (let $x := 2 return $x)" "2");
    ("let multiple", expect "let $x := 1, $y := 2 return $x + $y" "3");
    ("for", expect "for $i in (1, 2, 3) return $i * 2" "2;4;6");
    ("for two generators", expect "for $i in (1, 2), $j in (10, 20) return $i + $j"
       "11;21;12;22");
    ("for over nodes", expect "for $i in //item return string($i)" "glue;paint;glue");
    ("where", expect "for $i in (1, 2, 3, 4) where $i mod 2 = 0 return $i" "2;4");
    ("order by", expect "for $i in (3, 1, 2) order by $i return $i" "1;2;3");
    ("order by descending", expect "for $i in (3, 1, 2) order by $i descending return $i"
       "3;2;1");
    ("order by string key", expect
       "string-join(for $i in //item order by string($i) return string($i), ',')"
       "glue,glue,paint");
    ("order by two keys", expect
       "for $i in (2, 1, 2) order by $i, 10 - $i return $i" "1;2;2");
    ("some satisfies", expect "some $i in //item satisfies $i = 'paint'" "true");
    ("every satisfies", expect "every $i in //item satisfies string-length($i) > 3" "true");
    ("every fails", expect "every $i in //item satisfies $i = 'glue'" "false");
    ("some over empty is false", expect "some $i in () satisfies true()" "false");
    ("every over empty is true", expect "every $i in () satisfies false()" "true");
    ("nested flwor", expect
       "for $i in (1, 2) return (for $j in (1, 2) where $j >= $i return 10 * $i + $j)"
       "11;12;22");
  ]

let test_undefined_var = expect_error "$nope"

(* ---- constructors ---- *)

let constructors =
  [
    ("empty element", expect "<a/>" "<a/>");
    ("static content", expect "<a><b>x</b></a>" "<a><b>x</b></a>");
    ("enclosed atomic", expect "<a>{1 + 1}</a>" "<a>2</a>");
    ("enclosed node copy", expect "<a>{//requestID}</a>"
       "<a><requestID>r1</requestID></a>");
    ("adjacent atomics space-joined", expect "<a>{(1, 2, 3)}</a>" "<a>1 2 3</a>");
    ("mixed text and expr", expect "<a>n={count(//item)}.</a>" "<a>n=3.</a>");
    ("attribute enclosed", expect {|<a id="{//requestID}"/>|} {|<a id="r1"/>|});
    ("attribute mixed", expect {|<a id="r-{1+1}-x"/>|} {|<a id="r-2-x"/>|});
    ("curly escapes", expect "<a>{{literal}}</a>" "<a>{literal}</a>");
    ("boundary whitespace stripped", expect "<a> {1} </a>" "<a>1</a>");
    ("nested constructors", expect "<a><b>{2}</b><c/></a>" "<a><b>2</b><c/></a>");
    ("constructor entity", expect "<a>&lt;raw&gt;</a>" "<a>&lt;raw&gt;</a>");
    ("constructed node is navigable", expect "count((<a><b/><b/></a>)/b)" "2");
    ("constructor in flwor", expect
       "for $i in (1, 2) return <n v=\"{$i}\"/>" {|<n v="1"/>;<n v="2"/>|});
    ("cdata in constructor", expect "<a><![CDATA[<x>&]]></a>" "<a>&lt;x&gt;&amp;</a>");
  ]

(* ---- function library ---- *)

let functions =
  [
    ("count", expect "count(//item)" "3");
    ("exists", expect "exists(//nothing)" "false");
    ("empty", expect "empty(//nothing)" "true");
    ("not", expect "not(())" "true");
    ("boolean of string", expect "boolean('x')" "true");
    ("string of node", expect "string(//customerID)" "c7");
    ("string of context", expect "//requestID/string()" "r1");
    ("string empty seq", expect "string(())" "");
    ("data", expect "data(//item[2])" "paint");
    ("concat", expect "concat('a', 'b', 'c')" "abc");
    ("concat atomizes", expect "concat(//requestID, '-', 1)" "r1-1");
    ("string-join", expect "string-join(('a', 'b'), '+')" "a+b");
    ("string-length", expect "string-length('hello')" "5");
    ("string-length of context", expect "//customerID/string-length()" "2");
    ("contains", expect "contains('hello', 'ell')" "true");
    ("contains empty", expect "contains('x', '')" "true");
    ("starts-with", expect "starts-with('hello', 'he')" "true");
    ("ends-with", expect "ends-with('hello', 'lo')" "true");
    ("substring 2-arg", expect "substring('hello', 2)" "ello");
    ("substring 3-arg", expect "substring('hello', 2, 3)" "ell");
    ("substring rounding", expect "substring('hello', 1.5, 2.6)" "ell");
    ("substring-before", expect "substring-before('a=b', '=')" "a");
    ("substring-before absent", expect "substring-before('ab', 'x')" "");
    ("substring-after", expect "substring-after('a=b=c', '=')" "b=c");
    ("normalize-space", expect "normalize-space('  a   b ')" "a b");
    ("upper-case", expect "upper-case('aBc')" "ABC");
    ("lower-case", expect "lower-case('AbC')" "abc");
    ("tokenize", expect "tokenize('a,b,,c', ',')" "a;b;;c");
    ("number", expect "number('3.5') * 2" "7");
    ("sum", expect "sum((1, 2, 3))" "6");
    ("sum of empty", expect "sum(())" "");
    ("avg", expect "avg((1, 2, 3))" "2");
    ("max numeric", expect "max((1, 5, 3))" "5");
    ("min string", expect "min(('b', 'a'))" "a");
    ("abs", expect "abs(0 - 5)" "5");
    ("floor", expect "floor(2.7)" "2");
    ("ceiling", expect "ceiling(2.1)" "3");
    ("round", expect "round(2.5)" "3");
    ("distinct-values", expect "distinct-values(//item)" "glue;paint");
    ("distinct-values numeric", expect "distinct-values((1, '1', 2))" "1;2");
    ("reverse", expect "reverse((1, 2, 3))" "3;2;1");
    ("index-of", expect "index-of((10, 20, 10), 10)" "1;3");
    ("subsequence", expect "subsequence((1, 2, 3, 4), 2, 2)" "2;3");
    ("insert-before", expect "insert-before((1, 3), 2, (2))" "1;2;3");
    ("remove", expect "remove((1, 2, 3), 2)" "1;3");
    ("name", expect "name(//item[1])" "item");
    ("local-name of context", expect "//item[1]/local-name()" "item");
    ("root returns document", expect "count(root(//item[1])/offerRequest)" "1");
    ("fn: prefix accepted", expect "fn:count(//item)" "3");
    ("position in predicate", expect "//item[position() = 2]/string()" "paint");
  ]

let test_unknown_function = expect_error "no-such-fn(1)"
let test_fn_error = expect_error "error('boom')"
let test_arity_error = expect_error "count(1, 2)"

(* ---- updates ---- *)

let test_enqueue_update () =
  match eval_updates "do enqueue <m>{//requestID}</m> into q1 with k value 'v' with n value 7" with
  | [ Update.Enqueue { payload; queue; props } ] ->
    check string_ "queue" "q1" queue;
    check string_ "payload" "<m><requestID>r1</requestID></m>"
      (Demaq.Xml.Serializer.to_string (Demaq.Xml.Bxml.decode payload));
    check int_ "props" 2 (List.length props);
    check string_ "prop k" "v" (Value.string_of_atomic (List.assoc "k" props));
    check string_ "prop n" "7" (Value.string_of_atomic (List.assoc "n" props))
  | _ -> Alcotest.fail "expected one enqueue"

let test_reset_update () =
  (match eval_updates "do reset" with
   | [ Update.Reset { slicing = None; key = None } ] -> ()
   | _ -> Alcotest.fail "expected bare reset");
  match eval_updates "do reset slicing orders key 'k1'" with
  | [ Update.Reset { slicing = Some "orders"; key = Some k } ] ->
    check string_ "key" "k1" (Value.string_of_atomic k)
  | _ -> Alcotest.fail "expected parameterized reset"

let test_conditional_updates () =
  check int_ "taken branch emits" 1
    (List.length (eval_updates "if (//item) then do enqueue <x/> into q else ()"));
  check int_ "untaken branch silent" 0
    (List.length (eval_updates "if (//missing) then do enqueue <x/> into q else ()"))

let test_flwor_updates () =
  let ups = eval_updates "for $i in //item return do enqueue <got>{string($i)}</got> into q" in
  check int_ "three updates" 3 (List.length ups)

let test_update_order () =
  match eval_updates "(do enqueue <a/> into q1, do enqueue <b/> into q2)" with
  | [ Update.Enqueue { queue = "q1"; _ }; Update.Enqueue { queue = "q2"; _ } ] -> ()
  | _ -> Alcotest.fail "updates out of order"

let test_enqueue_payload_errors () =
  expect_error "do enqueue 'atomic' into q" ();
  expect_error "do enqueue () into q" ();
  expect_error "do enqueue (//item) into q with p value (1, 2)" ()

let test_enqueue_document_node () =
  (* enqueueing the context document node extracts its element *)
  match eval_updates "do enqueue (/) into q" with
  | [ Update.Enqueue { payload; _ } ] -> (
    match Demaq.Xml.Bxml.decode payload with
    | Tree.Element e ->
      check string_ "root elem" "offerRequest" (Demaq.Xml.Name.local e.Tree.name)
    | _ -> Alcotest.fail "expected element payload")
  | _ -> Alcotest.fail "expected one enqueue"

(* ---- syntax errors ---- *)

let syntax_errors =
  List.map
    (fun src -> ("syntax error: " ^ src, `Quick, expect_syntax_error src))
    [
      "1 +";
      "if (1) then";
      "let $x = 1 return $x";
      "for $x in return 1";
      "<a><b></a>";
      "do enqueue <x/>";
      "do enqueue <x/> into";
      "(1, 2";
      "//[1]";
      "some $x satisfies 1";
      "\"unterminated";
      "1 ! 2";
    ]

(* A constructor's character references decode as the XML parser's do:
   the payload is the bytes of the parsed document. A reference may be
   longer than its digits need (leading zeros). *)
let test_constructor_char_refs () =
  let src = "<a x=\"&#233;&#x41;\">&#233;&#x1F600;&#10;t&#x00000000000000041;</a>" in
  let parsed = Xml_parser.parse src in
  (match eval src with
   | [ Value.Node n ] ->
     check bool_ "tree of the parsed document" true (Tree.node_tree n = Some parsed)
   | _ -> Alcotest.fail "expected one node");
  match eval_updates ("do enqueue " ^ src ^ " into q") with
  | [ Update.Enqueue { payload; _ } ] ->
    check string_ "payload bytes" (Demaq.Xml.Bxml.encode parsed) payload
  | _ -> Alcotest.fail "expected one enqueue"

(* ---- comments and whitespace ---- *)

let comments =
  [
    ("comment ignored", expect "1 (: comment :) + 2" "3");
    ("nested comment", expect "1 (: a (: b :) c :) + 1" "2");
    ("comment in path", expect "count(//item (: all items :))" "3");
  ]

(* ---- pretty-printer round trips ---- *)

let pp_roundtrip_cases =
  [
    "//requestID";
    "/offerRequest/customerID";
    "count(//item[. = 'glue'])";
    "if (//item) then <a>{1}</a> else ()";
    "for $i in (1, 2) where $i > 1 order by $i descending return $i * 2";
    "let $x := //item return $x[1]";
    "some $i in //item satisfies contains($i, 'aint')";
    "do enqueue <m>{//requestID}</m> into q with k value 'v'";
    "do reset slicing s key 'k'";
    {|<a id="{1}">t{2}<b/></a>|};
    "(1, 2)[. mod 2 = 0]";
    "qs:slice()[/offer]";
    "-(1 + 2)";
    "1 to 5";
    "//item | //customerID";
    "string(//item[last()])";
    "@n";
    "../item";
    "5 idiv 2 eq 2";
  ]

let test_pp_roundtrip () =
  List.iter
    (fun src ->
      let once = Parser.parse src in
      let printed = Pp.to_string once in
      let again =
        try Parser.parse printed
        with Parser.Syntax_error { msg; _ } ->
          Alcotest.failf "re-parse of %S (printed from %S) failed: %s" printed src msg
      in
      match fst (Eval.run ~context:default_ctx src) with
      | v1 ->
        let v2 = fst (Eval.run ~context:default_ctx (Pp.to_string again)) in
        check string_ ("pp roundtrip: " ^ src) (show v1) (show v2)
      | exception Context.Eval_error _ -> ()
        (* qs: functions need an engine host; the re-parse check above
           already covered the syntax roundtrip *))
    pp_roundtrip_cases

(* ---- qcheck: random arithmetic expressions evaluate consistently ---- *)

let gen_arith =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      if depth = 0 then map string_of_int (int_range 0 99)
      else
        frequency
          [
            (1, map string_of_int (int_range 0 99));
            ( 3,
              map3
                (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
                (oneofl [ "+"; "-"; "*" ])
                (self (depth - 1))
                (self (depth - 1)) );
          ])
    3

(* A tiny reference evaluator for the generated grammar. *)
let rec ref_eval s =
  let s = String.trim s in
  if s.[0] <> '(' then int_of_string s
  else begin
    (* strip outer parens, split at top level on the operator *)
    let inner = String.sub s 1 (String.length s - 2) in
    let depth = ref 0 in
    let split = ref (-1) in
    String.iteri
      (fun i c ->
        if c = '(' then incr depth
        else if c = ')' then decr depth
        else if !depth = 0 && !split < 0 && (c = '+' || c = '*') && i > 0 then split := i
        else if
          !depth = 0 && !split < 0 && c = '-' && i > 0 && inner.[i - 1] = ' '
        then split := i)
      inner;
    let i = !split in
    let l = ref_eval (String.sub inner 0 i) in
    let r = ref_eval (String.sub inner (i + 1) (String.length inner - i - 1)) in
    match inner.[i] with
    | '+' -> l + r
    | '-' -> l - r
    | '*' -> l * r
    | _ -> assert false
  end

let prop_arith =
  QCheck.Test.make ~name:"random arithmetic agrees with reference" ~count:300
    (QCheck.make gen_arith ~print:Fun.id)
    (fun src -> show (eval src) = string_of_int (ref_eval src))

let prop_flwor_map =
  QCheck.Test.make ~name:"for over 1 to n behaves like List.init" ~count:100
    QCheck.(int_range 0 30)
    (fun n ->
      let src = Printf.sprintf "for $i in 1 to %d return $i * $i" n in
      show (eval src)
      = String.concat ";" (List.init n (fun i -> string_of_int ((i + 1) * (i + 1)))))

(* ---- distinct-values: the hash-based form against the pairwise scan ---- *)

(* The original quadratic implementation: keep an atom unless
   [compare_atomic] equates it with one already kept. *)
let distinct_reference atoms =
  let rec dedup seen = function
    | [] -> []
    | a :: rest ->
      if List.exists (fun b -> Value.compare_atomic a b = 0) seen then dedup seen rest
      else a :: dedup (a :: seen) rest
  in
  dedup [] atoms

(* Small pools, so equal and cross-kind-equal atoms are frequent: numeric
   strings that equal numbers but not each other ("1", "1.0", " 1"),
   booleans that equal their string spelling, nan and signed zeros. *)
let gen_atom =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> Value.Boolean b) bool;
        map (fun i -> Value.Integer i) (int_range (-2) 3);
        map
          (fun f -> Value.Decimal f)
          (oneofl [ 0.0; -0.0; 1.0; 1.5; -2.0; 3.0; Float.nan; Float.infinity ]);
        map
          (fun s -> Value.String s)
          (oneofl [ "1"; "1.0"; " 1"; "0"; "-0"; "true"; "false"; "abc"; "nan"; "inf"; "" ]);
        map
          (fun s -> Value.Untyped s)
          (oneofl [ "1"; "1.5"; "2"; "true"; "abc"; "NaN"; "-2.0"; "3" ]);
      ])

let show_atoms atoms = String.concat ";" (List.map Value.string_of_atomic atoms)

let same_atoms a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         (* structural, except that nan must match nan *)
         match x, y with
         | Value.Decimal f, Value.Decimal g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
         | _ -> x = y)
       a b

let prop_distinct_values_reference =
  QCheck.Test.make ~name:"distinct-values agrees with the pairwise scan" ~count:1000
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 12) gen_atom)
       ~print:(fun atoms ->
         String.concat ","
           (List.map
              (fun a ->
                match a with
                | Value.Boolean _ -> "B:" ^ Value.string_of_atomic a
                | Value.Integer _ -> "I:" ^ Value.string_of_atomic a
                | Value.Decimal f -> Printf.sprintf "D:%h" f
                | Value.String s -> Printf.sprintf "S:%S" s
                | Value.Untyped s -> Printf.sprintf "U:%S" s)
              atoms)))
    (fun atoms ->
      let got =
        List.map
          (function Value.Atom a -> a | Value.Node _ -> assert false)
          (Demaq.Xquery.Functions.call (Context.make ()) "distinct-values"
             [ List.map (fun a -> Value.Atom a) atoms ])
      in
      let want = distinct_reference atoms in
      same_atoms got want
      || QCheck.Test.fail_reportf "got %s, want %s" (show_atoms got) (show_atoms want))

(* 32k distinct values take well under 50 ms (the pairwise scan: ~12 s).
   The query runs as a deployed rule would: compiled with [//i] fused
   into a descendant step. *)
let test_distinct_values_linear () =
  let n = 32_768 in
  let b = Buffer.create (n * 16) in
  Buffer.add_string b "<r>";
  for i = 0 to n - 1 do
    Printf.bprintf b "<i>%d</i>" i
  done;
  Buffer.add_string b "</r>";
  let env =
    {
      (Context.make ()) with
      Context.item = Some (Value.Node (Eval.node_of_tree (Xml_parser.parse (Buffer.contents b))));
    }
  in
  let expr =
    Demaq.Lang.Compiler.fuse_descendant_steps (Parser.parse "distinct-values(//i)")
  in
  let best = ref infinity and count = ref 0 in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    count := List.length (Eval.eval env expr);
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  check int_ "all distinct" n !count;
  if !best > 0.050 then
    Alcotest.failf "distinct-values over %d values took %.1f ms" n (!best *. 1e3)

(* An ad-hoc query runs fused like a deployed rule: [count(//i)] through
   [Eval.run] costs at most twice [count(/descendant::i)] (unfused it is
   about five times). Best of three each. *)
let test_run_fuses_descendant_steps () =
  let n = 32_768 in
  let b = Buffer.create (n * 8) in
  Buffer.add_string b "<r>";
  for _ = 1 to n do
    Buffer.add_string b "<i/>"
  done;
  Buffer.add_string b "</r>";
  let tree = Xml_parser.parse (Buffer.contents b) in
  let best src =
    let t = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      (match Eval.run ~context:tree src with
       | [ Value.Atom (Value.Integer c) ], [] -> check int_ src n c
       | _ -> Alcotest.failf "%s: not one integer" src);
      t := Float.min !t (Unix.gettimeofday () -. t0)
    done;
    !t
  in
  let slash = best "count(//i)" and step = best "count(/descendant::i)" in
  if slash > 2. *. step then
    Alcotest.failf "count(//i) took %.1f ms against %.1f ms for count(/descendant::i)"
      (slash *. 1e3) (step *. 1e3)

let quick name f = (name, `Quick, f)
let table cases = List.map (fun (name, f) -> (name, `Quick, f)) cases

let suite =
  table atoms @ table paths @ table control @ table constructors @ table functions
  @ [
      quick "value comparison multi-item errors" test_value_comparison_multi;
      quick "path over atomic errors" test_path_atomic_error;
      quick "undefined variable errors" test_undefined_var;
      quick "unknown function errors" test_unknown_function;
      quick "fn:error raises" test_fn_error;
      quick "wrong arity errors" test_arity_error;
      quick "enqueue update" test_enqueue_update;
      quick "reset update" test_reset_update;
      quick "conditional updates" test_conditional_updates;
      quick "flwor updates" test_flwor_updates;
      quick "update ordering" test_update_order;
      quick "enqueue payload errors" test_enqueue_payload_errors;
      quick "enqueue document node" test_enqueue_document_node;
      quick "pp roundtrip preserves semantics" test_pp_roundtrip;
    ]
  @ syntax_errors @ table comments
  @ [
      QCheck_alcotest.to_alcotest prop_arith;
      QCheck_alcotest.to_alcotest prop_flwor_map;
      QCheck_alcotest.to_alcotest prop_distinct_values_reference;
      quick "distinct-values linear in its input" test_distinct_values_linear;
      quick "Eval.run fuses descendant steps" test_run_fuses_descendant_steps;
      quick "constructor character references" test_constructor_char_refs;
    ]
  @ List.map
      (fun src -> ("syntax error: " ^ src, `Quick, expect_syntax_error src))
      [ "<a>&#0;</a>"; "<a>&#-5;</a>"; "<a x='&#x110000;'/>"; {|"&#0;"|}; {|"&#xD800;"|} ]
  @ table
      [
        ("string character reference", expect {|"x&#65;"|} "xA");
        ("string character references, largest code point",
         expect {|concat("&#x10FFFF;", '&#1114111;')|} "\u{10FFFF}\u{10FFFF}");
      ]
