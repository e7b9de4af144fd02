(* Tests for lib/xml: tree model, parser, serializer, schema. *)

module Name = Demaq.Xml.Name
module Tree = Demaq.Xml.Tree
module Parser = Demaq.Xml.Parser
module Serializer = Demaq.Xml.Serializer
module Schema = Demaq.Xml.Schema

let contains_sub ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let parse = Parser.parse
let to_string = Serializer.to_string

let roundtrip s = to_string (parse s)

(* ---- names ---- *)

let test_name_roundtrip () =
  let n = Name.make ~uri:"http://x" "local" in
  check string_ "clark" "{http://x}local" (Name.to_string n);
  check bool_ "of_string inverse" true (Name.equal n (Name.of_string "{http://x}local"));
  check string_ "no ns" "plain" (Name.to_string (Name.of_string "plain"))

let test_name_compare () =
  let a = Name.make ~uri:"a" "x" and b = Name.make ~uri:"b" "x" in
  check bool_ "uri ordered first" true (Name.compare a b < 0);
  check int_ "equal" 0 (Name.compare a a)

(* ---- parser ---- *)

let test_parse_simple () =
  check string_ "roundtrip" "<a><b>hi</b></a>" (roundtrip "<a><b>hi</b></a>")

let test_parse_attributes () =
  let t = parse {|<a x="1" y='two'/>|} in
  check (Alcotest.option string_) "x" (Some "1") (Tree.attribute_value t "x");
  check (Alcotest.option string_) "y" (Some "two") (Tree.attribute_value t "y");
  check (Alcotest.option string_) "missing" None (Tree.attribute_value t "z")

let test_parse_entities () =
  let t = parse "<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>" in
  check string_ "decoded" "<>&\"'AB" (Tree.tree_string_value t)

let test_parse_cdata () =
  let t = parse "<a><![CDATA[<not-a-tag> & raw]]></a>" in
  check string_ "cdata" "<not-a-tag> & raw" (Tree.tree_string_value t)

let test_parse_comments_pis () =
  let t = parse "<a><!--note--><?target data?><b/></a>" in
  match t with
  | Tree.Element e ->
    check int_ "children" 3 (List.length e.Tree.children);
    (match e.Tree.children with
     | [ Tree.Comment c; Tree.Pi { target; data }; Tree.Element _ ] ->
       check string_ "comment" "note" c;
       check string_ "pi target" "target" target;
       check string_ "pi data" "data" data
     | _ -> Alcotest.fail "unexpected shape")
  | _ -> Alcotest.fail "not an element"

let test_parse_prolog_doctype () =
  let t =
    parse
      {|<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE doc [ <!ELEMENT doc (#PCDATA)> ]>
<!-- leading comment -->
<doc>x</doc><!-- trailing -->|}
  in
  check string_ "root" "doc" (Name.local (Option.get (Tree.element_name t)))

let test_parse_whitespace_strip () =
  let t = parse "<a>\n  <b/>\n  <c/>\n</a>" in
  (match t with
   | Tree.Element e -> check int_ "stripped" 2 (List.length e.Tree.children)
   | _ -> Alcotest.fail "no element");
  let t = Parser.parse ~preserve_space:true "<a>\n  <b/>\n</a>" in
  match t with
  | Tree.Element e -> check int_ "preserved" 3 (List.length e.Tree.children)
  | _ -> Alcotest.fail "no element"

let test_parse_namespaces () =
  let t =
    parse
      {|<root xmlns="http://default" xmlns:p="http://pre"><p:child a="1" p:b="2"/></root>|}
  in
  let root_name = Option.get (Tree.element_name t) in
  check string_ "default ns applies" "http://default" (Name.uri root_name);
  match t with
  | Tree.Element e -> (
    match e.Tree.children with
    | [ Tree.Element c ] ->
      check string_ "prefixed child" "http://pre" (Name.uri c.Tree.name);
      let attr_ns =
        List.map
          (fun a -> (Name.local a.Tree.attr_name, Name.uri a.Tree.attr_name))
          c.Tree.attrs
      in
      (* unprefixed attributes take no namespace, prefixed take theirs *)
      check bool_ "a no-ns" true (List.mem ("a", "") attr_ns);
      check bool_ "b prefixed" true (List.mem ("b", "http://pre") attr_ns)
    | _ -> Alcotest.fail "no child")
  | _ -> Alcotest.fail "no element"

let xml_ns = "http://www.w3.org/XML/1998/namespace"

(* The [xml] prefix resolves at any depth, and a document cannot rebind
   it. *)
let test_parse_xml_prefix () =
  let t = parse {|<a xmlns:xml="urn:bogus"><b><c xml:lang="en"/></b></a>|} in
  let c =
    match t with
    | Tree.Element { children = [ Tree.Element { children = [ c ]; _ } ]; _ } -> c
    | _ -> Alcotest.fail "unexpected shape"
  in
  match c with
  | Tree.Element { attrs = [ a ]; _ } ->
    check string_ "xml:lang namespace" xml_ns (Name.uri a.Tree.attr_name);
    check string_ "xml:lang local" "lang" (Name.local a.Tree.attr_name)
  | _ -> Alcotest.fail "no attribute"

(* Parse time must grow linearly with nesting depth: 8x the depth may cost
   at most 20x the time (best of 3 each). A per-level namespace binding
   made each name lookup walk a list as long as the depth, about 70x.
   Timed in process CPU time ([Sys.time]), not wall time: on a shared
   host a descheduled run inflated one wall-clock sample past 20x. *)
let test_parse_depth_linear () =
  let nested d =
    let b = Buffer.create (7 * d) in
    for _ = 1 to d do
      Buffer.add_string b "<a>"
    done;
    for _ = 1 to d do
      Buffer.add_string b "</a>"
    done;
    Buffer.contents b
  in
  let best_of_3 src =
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let t0 = Sys.time () in
           ignore (parse src);
           Sys.time () -. t0))
  in
  let shallow = best_of_3 (nested 2_000) and deep = best_of_3 (nested 16_000) in
  let ratio = deep /. Float.max shallow 1e-6 in
  if ratio > 20. then
    Alcotest.failf "16k deep took %.1fx the time of 2k deep (%.2f ms vs %.2f ms)"
      ratio (deep *. 1e3) (shallow *. 1e3)

let test_parse_errors () =
  let fails s =
    match Parser.parse_result s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %s" s
  in
  fails "<a><b></a>";
  fails "<a";
  fails "no markup";
  fails "<a>&unknown;</a>";
  fails "<a></a><b></b>";
  fails "<a foo></a>"

let test_parse_error_position () =
  match Parser.parse_result "<a>\n<b></c>\n</a>" with
  | Error msg ->
    check bool_ "mentions line 2" true
      (contains_sub ~sub:"2:" msg)
  | Ok _ -> Alcotest.fail "expected error"

(* ---- serializer ---- *)

let test_escaping () =
  let t = Tree.elem "a" ~attrs:[ ("k", "x\"<>&") ] [ Tree.text "<&>" ] in
  check string_ "escaped" {|<a k="x&quot;&lt;&gt;&amp;">&lt;&amp;&gt;</a>|} (to_string t)

let test_serialize_ns () =
  let t =
    Tree.elem_ns
      (Name.make ~uri:"http://x" "a")
      [ Tree.elem_ns (Name.make ~uri:"http://x" "b") [] ]
  in
  let s = to_string t in
  check bool_ "has decl" true (contains_sub ~sub:"xmlns:ns1=\"http://x\"" s);
  (* re-parsing yields the same expanded names *)
  let t' = parse s in
  check bool_ "roundtrip ns" true (Tree.equal_tree t t')

let test_pretty () =
  let t = parse "<a><b>x</b><c><d/></c></a>" in
  let pretty = Serializer.to_string_pretty t in
  check bool_ "multiline" true (String.contains pretty '\n');
  check bool_ "reparses equal" true (Tree.equal_tree t (parse pretty))

let test_decl () =
  let s = Serializer.to_string ~decl:true (parse "<a/>") in
  check bool_ "decl" true (contains_sub ~sub:"<?xml" (String.sub s 0 5))

(* ---- tree navigation ---- *)

let test_navigation () =
  let t = parse "<a><b>1</b><c><b>2</b></c></a>" in
  let doc = Tree.doc t in
  let root = Tree.root_node doc in
  let all = Tree.descendants root in
  let elements = List.filter Tree.is_element all in
  check int_ "elements" 4 (List.length elements);
  let bs =
    List.filter
      (fun n ->
        match Tree.node_name n with Some nm -> Name.local nm = "b" | None -> false)
      all
  in
  check int_ "two b's" 2 (List.length bs);
  (match bs with
   | [ b1; b2 ] ->
     check bool_ "doc order" true (Tree.doc_order b1 b2 < 0);
     check string_ "string values" "1" (Tree.string_value b1);
     check string_ "string values" "2" (Tree.string_value b2);
     let p = Option.get (Tree.parent b2) in
     check string_ "parent of b2" "c" (Name.local (Option.get (Tree.node_name p)))
   | _ -> Alcotest.fail "expected two b elements");
  check string_ "doc string value" "12" (Tree.string_value root)

let test_attributes_nodes () =
  let t = parse {|<a x="1" y="2"><b/></a>|} in
  let doc = Tree.doc t in
  let a = List.hd (Tree.children (Tree.root_node doc)) in
  let attrs = Tree.attributes a in
  check int_ "two attrs" 2 (List.length attrs);
  let b = List.hd (Tree.children a) in
  (* attributes order before children *)
  check bool_ "attr < child" true (Tree.doc_order (List.hd attrs) b < 0);
  check string_ "attr value" "1" (Tree.string_value (List.hd attrs));
  (* descendants never include attributes *)
  check bool_ "no attrs in descendants" true
    (List.for_all
       (fun n -> match Tree.focus n with Tree.Fattribute _ -> false | _ -> true)
       (Tree.descendants (Tree.root_node doc)))

let test_equal_tree () =
  let a = parse {|<a x="1" y="2"><b/></a>|} in
  let b = parse {|<a y="2" x="1"><b/></a>|} in
  let c = parse {|<a x="1"><b/></a>|} in
  check bool_ "attr order irrelevant" true (Tree.equal_tree a b);
  check bool_ "missing attr differs" false (Tree.equal_tree a c)

(* ---- schema ---- *)

let schema_src = {|
element offerRequest { requestID, customerID, items }
element items { item* }
element item { text }
element note { mixed }
element flag { empty }
element pair { first, second? }
|}

let schema () =
  match Schema.parse schema_src with
  | Ok s -> s
  | Error e -> Alcotest.failf "schema parse: %s" e

let valid s doc = Result.is_ok (Schema.validate s (parse doc))

let test_schema_valid () =
  let s = schema () in
  check bool_ "ok doc" true
    (valid s
       "<offerRequest><requestID>r</requestID><customerID>c</customerID><items><item>i</item><item>j</item></items></offerRequest>");
  check bool_ "empty star ok" true
    (valid s
       "<offerRequest><requestID>r</requestID><customerID>c</customerID><items/></offerRequest>")

let test_schema_violations () =
  let s = schema () in
  check bool_ "missing required" false
    (valid s "<offerRequest><customerID>c</customerID><items/></offerRequest>");
  check bool_ "wrong order" false
    (valid s
       "<offerRequest><customerID>c</customerID><requestID>r</requestID><items/></offerRequest>");
  check bool_ "text only" false (valid s "<item><sub/></item>");
  check bool_ "empty" false (valid s "<flag>x</flag>");
  check bool_ "optional missing ok" true (valid s "<pair><first/></pair>");
  check bool_ "optional too many" false
    (valid s "<pair><first/><second/><second/></pair>");
  check bool_ "undeclared elements open" true (valid s "<whatever><x/></whatever>");
  check bool_ "mixed anything" true (valid s "<note>text <b/> more</note>")

let test_schema_root_restriction () =
  let s = schema () in
  check bool_ "allowed root" true
    (Result.is_ok (Schema.root_allowed s [ "item" ] (parse "<item>x</item>")));
  check bool_ "wrong root" false
    (Result.is_ok (Schema.root_allowed s [ "item" ] (parse "<note/>")))

let test_schema_parse_errors () =
  check bool_ "garbage" true (Result.is_error (Schema.parse "element x { !!! }"));
  check bool_ "unterminated" true (Result.is_error (Schema.parse "element x { a, b"))

let test_schema_example () =
  (* generated samples must themselves validate against the schema that
     produced them (that is what lets the load generator synthesize
     admissible ingress messages from deployed queue schemas) *)
  let src =
    {|
element order { orderID, customerID, priority?, items }
element orderID { text }
element customerID { text }
element priority { text }
element items { item+ }
element item { sku, qty }
element sku { text }
element qty { text }
|}
  in
  let s =
    match Schema.parse src with
    | Ok s -> s
    | Error e -> Alcotest.failf "schema parse: %s" e
  in
  (match Schema.example s "order" with
  | None -> Alcotest.fail "no example produced"
  | Some doc ->
    check bool_ "example validates" true (Result.is_ok (Schema.validate s doc));
    check bool_ "rooted correctly" true
      (Result.is_ok (Schema.root_allowed s [ "order" ] doc)));
  (* varying the seed still validates, and produces different documents *)
  let render v =
    match Schema.example ~vary:v s "order" with
    | Some doc -> Serializer.to_string doc
    | None -> Alcotest.fail "no example"
  in
  List.iter
    (fun v ->
      match Schema.example ~vary:v s "order" with
      | Some doc ->
        check bool_
          (Printf.sprintf "vary %d validates" v)
          true
          (Result.is_ok (Schema.validate s doc))
      | None -> Alcotest.fail "no example")
    [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  check bool_ "variation changes the document" true (render 0 <> render 1);
  (* a recursive schema terminates at the depth bound *)
  let rec_s =
    match Schema.parse "element tree { label, tree? } element label { text }" with
    | Ok s -> s
    | Error e -> Alcotest.failf "schema parse: %s" e
  in
  check bool_ "recursive schema yields a doc" true
    (Option.is_some (Schema.example rec_s "tree"));
  check bool_ "unknown element" true (Schema.example s "nothere" = None)

(* ---- qcheck properties ---- *)

let gen_tree =
  let open QCheck.Gen in
  let leaf_name = oneofl [ "a"; "b"; "c"; "order"; "item" ] in
  let text_gen = oneofl [ "x"; "hello world"; "<&>\""; "42"; "" ] in
  fix
    (fun self depth ->
      if depth = 0 then map Tree.text text_gen
      else
        frequency
          [
            (2, map Tree.text text_gen);
            ( 3,
              map3
                (fun name attrs children ->
                  let attrs =
                    List.sort_uniq (fun (a, _) (b, _) -> compare a b) attrs
                  in
                  Tree.elem name ~attrs children)
                leaf_name
                (small_list (pair (oneofl [ "k"; "v" ]) text_gen))
                (list_size (int_bound 3) (self (depth - 1))) );
          ])
    2

let arb_tree =
  QCheck.make gen_tree ~print:(fun t -> Serializer.to_string t)

(* Text nodes generated above may be empty or whitespace-only; normalize by
   merging/dropping for comparison the same way the parser does. *)
let rec normalize t =
  match t with
  | Tree.Element e ->
    let children =
      List.filter_map
        (fun c ->
          match c with
          | Tree.Text s when String.trim s = "" -> None
          | c -> Some (normalize c))
        e.Tree.children
    in
    (* merge adjacent text *)
    let rec merge = function
      | Tree.Text a :: Tree.Text b :: rest -> merge (Tree.Text (a ^ b) :: rest)
      | x :: rest -> x :: merge rest
      | [] -> []
    in
    Tree.Element { e with Tree.children = merge children }
  | t -> t

let prop_roundtrip =
  QCheck.Test.make ~name:"serialize/parse roundtrip" ~count:300 arb_tree (fun t ->
      let t = normalize (Tree.elem "root" [ t ]) in
      Tree.equal_tree t (parse (to_string t)))

(* Pretty printing reindents mixed content, so compare modulo surrounding
   whitespace in text nodes. *)
let rec trim_text t =
  match t with
  | Tree.Element e ->
    let children =
      List.filter_map
        (fun c ->
          match trim_text c with
          | Tree.Text s when String.trim s = "" -> None
          | c -> Some c)
        e.Tree.children
    in
    Tree.Element { e with Tree.children }
  | Tree.Text s -> Tree.Text (String.trim s)
  | t -> t

let prop_pretty_roundtrip =
  QCheck.Test.make ~name:"pretty serialize preserves element structure" ~count:200
    arb_tree (fun t ->
      let t = normalize (Tree.elem "root" [ t ]) in
      Tree.equal_tree (trim_text t) (trim_text (normalize (parse (Serializer.to_string_pretty t)))))

let prop_doc_order_total =
  QCheck.Test.make ~name:"doc order is a total order on descendants" ~count:100
    arb_tree (fun t ->
      let doc = Tree.doc (normalize (Tree.elem "root" [ t ])) in
      let nodes = Tree.descendant_or_self (Tree.root_node doc) in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let ab = Tree.doc_order a b and ba = Tree.doc_order b a in
              (ab = 0) = (ba = 0) && (ab < 0) = (ba > 0))
            nodes)
        nodes)

(* ---- document identity across domains ---- *)

let test_doc_ids_distinct_across_domains () =
  (* element constructors mint documents during unlocked rule evaluation
     on every worker domain; node identity and document order rest on the
     document id, so concurrent mints must never share one *)
  let leaf = Tree.text "x" in
  let ready = Atomic.make 0 in
  let mint () =
    (* start together, so the mints really interleave *)
    Atomic.incr ready;
    while Atomic.get ready < 4 do Domain.cpu_relax () done;
    Array.init 100_000 (fun _ -> Tree.doc_id (Tree.doc leaf))
  in
  let ids =
    Array.concat (List.map Domain.join (List.init 4 (fun _ -> Domain.spawn mint)))
  in
  Array.sort compare ids;
  let dups = ref 0 in
  Array.iteri (fun i id -> if i > 0 && id = ids.(i - 1) then incr dups) ids;
  check int_ "no duplicate document ids" 0 !dups

(* Trees and error positions of [parse_many] on edge cases of the
   content and end-tag paths (text runs of several pieces, entities,
   CDATA, comments and PIs between text, namespace declarations, end tags
   that differ from their start tag only in a suffix), with whitespace
   stripped and preserved. The expected values are the output of the
   parser before its content loop was made allocation-free; a document
   list is shown serialized, documents separated by '|'. *)
type outcome = Parsed of string | Failed of (int * int * string)

let pinned_parses =
  [
    ("<a><b></a>",
     Failed (1, 10, "mismatched end tag: expected </b>, got </a>"),
     Failed (1, 10, "mismatched end tag: expected </b>, got </a>"));
    ("<a></a:b>",
     Failed (1, 9, "mismatched end tag: expected </a>, got </a:b>"),
     Failed (1, 9, "mismatched end tag: expected </a>, got </a:b>"));
    ("<a></ab>",
     Failed (1, 8, "mismatched end tag: expected </a>, got </ab>"),
     Failed (1, 8, "mismatched end tag: expected </a>, got </ab>"));
    ("<a></>",
     Failed (1, 6, "expected a name, found '>'"),
     Failed (1, 6, "expected a name, found '>'"));
    ("<a>text",
     Failed (1, 8, "unexpected end of input inside element"),
     Failed (1, 8, "unexpected end of input inside element"));
    ("<a x='1' y></a>",
     Failed (1, 11, "expected '=', found '>'"),
     Failed (1, 11, "expected '=', found '>'"));
    ("<p:a/>",
     Failed (1, 5, "unbound namespace prefix: p"),
     Failed (1, 5, "unbound namespace prefix: p"));
    ("<a p:x='1'/>",
     Failed (1, 11, "unbound namespace prefix: p"),
     Failed (1, 11, "unbound namespace prefix: p"));
    ("<a q:x='1' p:y='2'/>",
     Failed (1, 19, "unbound namespace prefix: p"),
     Failed (1, 19, "unbound namespace prefix: p"));
    ("<a>&unknown;</a>",
     Failed (1, 13, "unknown entity: &unknown;"),
     Failed (1, 13, "unknown entity: &unknown;"));
    ("<a>\n  <b>\n</c>\n</a>",
     Failed (3, 4, "mismatched end tag: expected </b>, got </c>"),
     Failed (3, 4, "mismatched end tag: expected </b>, got </c>"));
    ("<a><!-- x </a>",
     Failed (1, 15, "unterminated comment"),
     Failed (1, 15, "unterminated comment"));
    ("<a><![CDATA[ x</a>",
     Failed (1, 19, "unterminated CDATA section"),
     Failed (1, 19, "unterminated CDATA section"));
    ("<a><?pi x</a>",
     Failed (1, 14, "unterminated processing instruction"),
     Failed (1, 14, "unterminated processing instruction"));
    ("<a><!x/></a>",
     Failed (1, 5, "expected a name, found '!'"),
     Failed (1, 5, "expected a name, found '!'"));
    ("<a></a  x>",
     Failed (1, 9, "expected '>', found 'x'"),
     Failed (1, 9, "expected '>', found 'x'"));
    ("<a>&#xZZ;</a>",
     Failed (1, 10, "bad character reference: ZZ"),
     Failed (1, 10, "bad character reference: ZZ"));
    (* character references: XML's [Char] production, digits only *)
    ("<a>&#-5;</a>",
     Failed (1, 9, "bad character reference: -5"),
     Failed (1, 9, "bad character reference: -5"));
    ("<a>&#0;</a>",
     Failed (1, 8, "bad character reference: 0"),
     Failed (1, 8, "bad character reference: 0"));
    ("<a>&#x110000;</a>",
     Failed (1, 14, "bad character reference: 110000"),
     Failed (1, 14, "bad character reference: 110000"));
    ("<a b='&#xD800;'/>",
     Failed (1, 15, "bad character reference: D800"),
     Failed (1, 15, "bad character reference: D800"));
    ("<a>&#xFFFE;</a>",
     Failed (1, 12, "bad character reference: FFFE"),
     Failed (1, 12, "bad character reference: FFFE"));
    ("<a>&#+65;</a>",
     Failed (1, 10, "bad character reference: +65"),
     Failed (1, 10, "bad character reference: +65"));
    ("<a>&#x;</a>",
     Failed (1, 8, "bad character reference: "),
     Failed (1, 8, "bad character reference: "));
    ("<a>&#99999999999999999999999;</a>",
     Failed (1, 30, "bad character reference: 99999999999999999999999"),
     Failed (1, 30, "bad character reference: 99999999999999999999999"));
    ("<a>&#9;&#x1F600;&#0065;</a>",
     Parsed "<a>\t\240\159\152\128A</a>",
     Parsed "<a>\t\240\159\152\128A</a>");
    ("<a b=\"&lt;x\" c=\"\n&bogus;\"/>",
     Failed (2, 8, "unknown entity: &bogus;"),
     Failed (2, 8, "unknown entity: &bogus;"));
    ("<a></a",
     Failed (1, 7, "expected '>', found '\\000'"),
     Failed (1, 7, "expected '>', found '\\000'"));
    ("<a xmlns:p='u'><p:b></p:c></a>",
     Failed (1, 26, "mismatched end tag: expected </p:b>, got </p:c>"),
     Failed (1, 26, "mismatched end tag: expected </p:b>, got </p:c>"));
    ("<a>x<![CDATA[y]]>&amp;z</b>",
     Failed (1, 27, "mismatched end tag: expected </a>, got </b>"),
     Failed (1, 27, "mismatched end tag: expected </a>, got </b>"));
    ("<a>\195\169\195\169</a\195\169>",
     Failed (1, 13, "mismatched end tag: expected </a>, got </a\195\169>"),
     Failed (1, 13, "mismatched end tag: expected </a>, got </a\195\169>"));
    ("<a><b/><",
     Failed (1, 9, "expected a name, found '\\000'"),
     Failed (1, 9, "expected a name, found '\\000'"));
    ("<a>x &lt y</a>",
     Failed (1, 9, "expected ';', found ' '"),
     Failed (1, 9, "expected ';', found ' '"));
    ("<a\n  b='1'\n  c='2'>\n<d/></a>\n<e>",
     Failed (5, 4, "unexpected end of input inside element"),
     Failed (5, 4, "unexpected end of input inside element"));
    ("<a>\n<b x='1'>t</b ></a >\n<c/>",
     Parsed "<a><b x=\"1\">t</b></a>|<c/>",
     Parsed "<a>\n<b x=\"1\">t</b></a>|<c/>");
    ("<a>x<![CDATA[<y>]]>&amp;z&#65;<!--c-->w<?p d?> <b/>  </a>",
     Parsed "<a>x&lt;y&gt;&amp;zA<!--c-->w<?p d?><b/></a>",
     Parsed "<a>x&lt;y&gt;&amp;zA<!--c-->w<?p d?> <b/>  </a>");
    ("<a xmlns='u' xmlns:p='v' p:k='1' k='2'><p:b xmlns:p='w' p:j='3'><c/></p:b><xml:x xml:lang='en'/></a>",
     Parsed "<ns1:a xmlns:ns1=\"u\" xmlns:ns2=\"v\" ns2:k=\"1\" k=\"2\"><ns3:b xmlns:ns3=\"w\" ns3:j=\"3\"><ns1:c/></ns3:b><ns4:x xmlns:ns4=\"http://www.w3.org/XML/1998/namespace\" ns4:lang=\"en\"/></ns1:a>",
     Parsed "<ns1:a xmlns:ns1=\"u\" xmlns:ns2=\"v\" ns2:k=\"1\" k=\"2\"><ns3:b xmlns:ns3=\"w\" ns3:j=\"3\"><ns1:c/></ns3:b><ns4:x xmlns:ns4=\"http://www.w3.org/XML/1998/namespace\" ns4:lang=\"en\"/></ns1:a>");
    ("<a xmlns:xml='ignored' xmlns:='d'><b/></a>",
     Parsed "<ns1:a xmlns:ns1=\"d\"><ns1:b/></ns1:a>",
     Parsed "<ns1:a xmlns:ns1=\"d\"><ns1:b/></ns1:a>");
    ("<a>   </a><!-- between --><b>&lt;&gt;&quot;&apos;</b> <?pi?>",
     Parsed "<a/>|<b>&lt;&gt;\"'</b>",
     Parsed "<a>   </a>|<b>&lt;&gt;\"'</b>");
    ("<?xml version='1.0'?><!DOCTYPE a [<!ELEMENT a ANY>]><a><![CDATA[]]></a>",
     Parsed "<a/>",
     Parsed "<a/>");
    ("<a b=\"x&amp;y\" c='&#x41;&#66;'>&#x10000;&#xe9;</a>",
     Parsed "<a b=\"x&amp;y\" c=\"AB\">\240\144\128\128\195\169</a>",
     Parsed "<a b=\"x&amp;y\" c=\"AB\">\240\144\128\128\195\169</a>");
  ]

let test_parse_pinned () =
  let outcome preserve_space c =
    match Parser.parse_many ~preserve_space c with
    | docs -> Parsed (String.concat "|" (List.map to_string docs))
    | exception Parser.Parse_error { line; col; msg } -> Failed (line, col, msg)
  in
  let show = function
    | Parsed s -> "Parsed " ^ s
    | Failed (l, c, m) -> Printf.sprintf "Error %d:%d %s" l c m
  in
  List.iter
    (fun (src, stripped, preserved) ->
      check string_ (String.escaped src) (show stripped) (show (outcome false src));
      check string_ (String.escaped src ^ " (preserve_space)") (show preserved)
        (show (outcome true src)))
    pinned_parses

(* Allocation budget of [Parser.parse_many] on one schema-generated
   <order>, the fanout workload's ingress document (the order schema of
   examples/order_fanout.demaq). Words allocated per parse, minor and
   direct-to-major, averaged over 200 parses after a warm-up that interns
   the names. *)
let order_schema =
  {|
element order { orderID, customerID, priority?, items }
element orderID { text }
element customerID { text }
element priority { text }
element items { item+ }
element item { sku, qty }
element sku { text }
element qty { text }
|}

(* Measured at 228 words (1.78 KB) with this parser; the budget leaves
   about 30% of margin. The parser whose content loop allocated closures,
   refs and an end-tag copy per element took 1,188 words (9.28 KB). *)
let parse_alloc_budget_words = 300

let test_parse_alloc_budget () =
  let s =
    match Schema.parse order_schema with
    | Ok s -> s
    | Error e -> Alcotest.failf "schema parse: %s" e
  in
  let doc =
    match Schema.example ~vary:805 s "order" with
    | Some d -> to_string d
    | None -> Alcotest.fail "no example order"
  in
  ignore (Parser.parse_many doc);
  (* a domain's counters are exact right after a minor collection *)
  let allocated () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let runs = 200 in
  let w0 = allocated () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (Parser.parse_many doc))
  done;
  let words = (allocated () -. w0) /. float runs in
  Printf.printf "parse_many: %d-byte order, %.1f words (%.2f KB) per parse\n"
    (String.length doc) words (words *. float (Sys.word_size / 8) /. 1024.);
  if words > float parse_alloc_budget_words then
    Alcotest.failf "parse_many allocated %.0f words per %d-byte order (budget %d)"
      words (String.length doc) parse_alloc_budget_words

let suite =
  [
    ("name roundtrip", `Quick, test_name_roundtrip);
    ("name compare", `Quick, test_name_compare);
    ("parse simple", `Quick, test_parse_simple);
    ("parse attributes", `Quick, test_parse_attributes);
    ("parse entities", `Quick, test_parse_entities);
    ("parse cdata", `Quick, test_parse_cdata);
    ("parse comments and PIs", `Quick, test_parse_comments_pis);
    ("parse prolog and doctype", `Quick, test_parse_prolog_doctype);
    ("whitespace stripping", `Quick, test_parse_whitespace_strip);
    ("namespaces", `Quick, test_parse_namespaces);
    ("xml prefix fixed at any depth", `Quick, test_parse_xml_prefix);
    ("parse time linear in nesting depth", `Quick, test_parse_depth_linear);
    ("parse errors", `Quick, test_parse_errors);
    ("parse error positions", `Quick, test_parse_error_position);
    ("escaping", `Quick, test_escaping);
    ("serialize namespaces", `Quick, test_serialize_ns);
    ("pretty printing", `Quick, test_pretty);
    ("xml declaration", `Quick, test_decl);
    ("navigation", `Quick, test_navigation);
    ("attribute nodes", `Quick, test_attributes_nodes);
    ("structural equality", `Quick, test_equal_tree);
    ("schema: valid documents", `Quick, test_schema_valid);
    ("schema: violations", `Quick, test_schema_violations);
    ("schema: root restriction", `Quick, test_schema_root_restriction);
    ("schema: parse errors", `Quick, test_schema_parse_errors);
    ("schema: generated example validates", `Quick, test_schema_example);
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_pretty_roundtrip;
    QCheck_alcotest.to_alcotest prop_doc_order_total;
    ("document ids distinct across domains", `Quick, test_doc_ids_distinct_across_domains);
    ("parse_many allocation budget on a fanout order", `Quick, test_parse_alloc_budget);
    ("parse_many trees and error positions pinned", `Quick, test_parse_pinned);
  ]
