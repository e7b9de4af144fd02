(* Tests for lib/xml/bxml: the compact binary payload representation.

   The properties pin the contracts the engine's hot path relies on:
   decode is an exact inverse of encode (no normalization slack — the
   stored form must be lossless), the header synopsis agrees with a full
   tree walk, and prefilter admission decided from the synopsis agrees
   with admission decided from the materialized tree. *)

module Tree = Demaq.Xml.Tree
module Parser = Demaq.Xml.Parser
module Serializer = Demaq.Xml.Serializer
module Bxml = Demaq.Xml.Bxml
module Prefilter = Demaq.Lang.Prefilter
module Store = Demaq.Store.Message_store
module S = Demaq.Server

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let order_doc =
  "<order><orderID>ord-1</orderID><customer tier=\"gold\">ACME</customer>\
   <items><item sku=\"S-1\" qty=\"2\"><price>19.95</price></item>\
   <item sku=\"S-2\" qty=\"1\"><price>5.00</price></item></items></order>"

(* ---- format discrimination ---- *)

let test_is_binary () =
  let bin = Bxml.encode (Parser.parse order_doc) in
  check bool_ "encoded is binary" true (Bxml.is_binary bin);
  check bool_ "text is not" false (Bxml.is_binary order_doc);
  check bool_ "empty is not" false (Bxml.is_binary "");
  check bool_ "leading whitespace is not" false (Bxml.is_binary "  <a/>");
  (* the magic's NUL first byte can never start well-formed text XML *)
  check int_ "magic starts with NUL" 0 (Char.code Bxml.magic.[0])

let test_decode_any () =
  let t = Parser.parse order_doc in
  check bool_ "decode_any on text parses" true
    (Tree.equal_tree t (Bxml.decode_any order_doc));
  check bool_ "decode_any on binary decodes" true
    (Tree.equal_tree t (Bxml.decode_any (Bxml.encode t)))

(* ---- exact round-trip on handwritten corners ---- *)

let test_roundtrip_corners () =
  List.iter
    (fun src ->
      let t = Parser.parse src in
      check bool_ ("roundtrip: " ^ src) true
        (Tree.equal_tree t (Bxml.decode (Bxml.encode t))))
    [
      "<a/>";
      "<a x=\"1\" y=\"two\"/>";
      "<a>&lt;&amp;&gt;\"'</a>";
      "<a><!--note--><?target data?><b/></a>";
      "<ns:a xmlns:ns=\"urn:x\"><ns:b/><c/></ns:a>";
      "<a><b>deep<c>er</c></b>tail</a>";
      order_doc;
    ]

let test_corrupt_rejected () =
  let bin = Bxml.encode (Parser.parse order_doc) in
  let truncated = String.sub bin 0 (String.length bin - 3) in
  check bool_ "truncated fails check" true (not (Bxml.validate truncated));
  (match Bxml.decode truncated with
  | exception Bxml.Decode_error _ -> ()
  | _ -> Alcotest.fail "truncated payload decoded");
  (* garbage behind the magic *)
  let garbage = Bxml.magic ^ String.make 16 '\xff' in
  check bool_ "garbage fails check" true (not (Bxml.validate garbage));
  (match Bxml.decode garbage with
  | exception Bxml.Decode_error _ -> ()
  | _ -> Alcotest.fail "garbage payload decoded");
  check bool_ "intact passes check" true (Bxml.validate bin)

(* ---- streaming readers ---- *)

let test_synopsis () =
  let bin = Bxml.encode (Parser.parse order_doc) in
  let names = List.sort compare (Bxml.synopsis bin) in
  check (Alcotest.list string_) "element names, attrs excluded"
    [ "customer"; "item"; "items"; "order"; "orderID"; "price" ]
    names

(* ---- parse_many (batch ingress bodies) ---- *)

let test_parse_many () =
  let docs = Parser.parse_many "<a/><b>x</b>  <!-- sep --> <c n='1'/>" in
  check int_ "three documents" 3 (List.length docs);
  check bool_ "in order" true
    (List.map Serializer.to_string docs = [ "<a/>"; "<b>x</b>"; "<c n=\"1\"/>" ]);
  check int_ "single document" 1 (List.length (Parser.parse_many "<a/>"));
  match Parser.parse_many "<a/> trailing junk" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "junk between documents accepted"

(* ---- qcheck properties ---- *)

(* Unlike serialize/parse (which merges and strips whitespace text), the
   binary codec must be EXACTLY lossless: no normalization before the
   comparison. *)
let prop_bxml_roundtrip =
  QCheck.Test.make ~name:"decode . encode = id (exact)" ~count:300
    Test_xml.arb_tree (fun t ->
      let t = Tree.elem "root" [ t ] in
      Tree.equal_tree t (Bxml.decode (Bxml.encode t)))

let prop_synopsis_agrees =
  QCheck.Test.make ~name:"header synopsis = tree-walk synopsis" ~count:300
    Test_xml.arb_tree (fun t ->
      let t = Tree.elem "root" [ t ] in
      let streamed =
        List.fold_left
          (fun acc n -> Prefilter.Names.add n acc)
          Prefilter.Names.empty
          (Bxml.synopsis (Bxml.encode t))
      in
      Prefilter.Names.equal streamed (Prefilter.element_names t))

let prop_admission_agrees =
  (* the engine-level contract: admission decided from the stored payload
     (streaming path) is the same decision as from the materialized tree *)
  QCheck.Test.make ~name:"prefilter admission: synopsis = tree" ~count:300
    QCheck.(pair Test_xml.arb_tree (small_list (oneofl [ "a"; "b"; "order"; "zzz" ])))
    (fun (t, requirements) ->
      let t = Tree.elem "root" [ t ] in
      let from_tree =
        Prefilter.may_match ~requirements ~names:(Prefilter.element_names t)
      in
      match Prefilter.payload_names (Bxml.encode t) with
      | None -> false (* binary payloads must always yield a synopsis *)
      | Some names -> Prefilter.may_match ~requirements ~names = from_tree)

let prop_payload_names_text_none =
  QCheck.Test.make ~name:"payload_names on text is None (fallback path)"
    ~count:100 Test_xml.arb_tree (fun t ->
      let t = Tree.elem "root" [ t ] in
      Prefilter.payload_names (Serializer.to_string t) = None)

(* ---- engine integration: deferred materialization counters ---- *)

let test_admission_counters () =
  (* 1 matching + 3 non-matching recovered messages under a rule needing
     //ping: the non-matching ones must drain as synopsis-only admission
     scans, never materializing a tree. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-bxml-adm-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let program = {|
    create queue in kind basic mode persistent
    create queue out kind basic mode persistent
    create rule pong for in if (//ping) then do enqueue <pong/> into out
  |} in
  let cfg = Store.durable_config dir in
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st program in
  List.iter
    (fun doc ->
      match S.inject srv ~queue:"in" (Demaq.xml doc) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "inject failed")
    [ "<noise a='1'/>"; "<ping/>"; "<noise b='2'/>"; "<noise c='3'/>" ];
  Store.close st;
  (* restart: payloads now fault in from the store in binary form *)
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st program in
  ignore (S.run srv);
  let scans, decodes, decoded_bytes = S.admission_stats srv in
  check int_ "one pong" 1 (List.length (S.queue_contents srv "out"));
  check int_ "3 noise messages admitted without a tree" 3 scans;
  check int_ "only the ping decoded" 1 decodes;
  check bool_ "decoded bytes counted" true (decoded_bytes > 0);
  Store.close st

let suite =
  [
    ("is_binary discrimination", `Quick, test_is_binary);
    ("decode_any accepts both formats", `Quick, test_decode_any);
    ("round-trip corners", `Quick, test_roundtrip_corners);
    ("corrupt payloads rejected", `Quick, test_corrupt_rejected);
    ("header synopsis", `Quick, test_synopsis);
    ("parse_many batch bodies", `Quick, test_parse_many);
    ("admission counters after restart", `Quick, test_admission_counters);
    QCheck_alcotest.to_alcotest prop_bxml_roundtrip;
    QCheck_alcotest.to_alcotest prop_synopsis_agrees;
    QCheck_alcotest.to_alcotest prop_admission_agrees;
    QCheck_alcotest.to_alcotest prop_payload_names_text_none;
  ]

(* The encoder scans its first 16 names and hands over to a hash table
   past them. Across that boundary, with names that are equal but not
   physically shared, each distinct name gets one dictionary entry, the
   document round-trips exactly, and the next, smaller document starts
   from an empty dictionary. *)
let test_many_names () =
  let module Name = Demaq.Xml.Name in
  let name i =
    let local = Printf.sprintf "e%d" i in
    if i mod 2 = 0 then Name.make local else Name.intern local
  in
  let elems =
    List.init 40 (fun i ->
        Tree.elem_ns
          ~attrs:
            [ { Tree.attr_name = Name.make (Printf.sprintf "a%d" (i mod 20));
                attr_value = "v" } ]
          (name (i mod 30))
          [ Tree.elem_ns (name (i mod 30)) [ Tree.text "x" ] ])
  in
  let big = Tree.elem "root" elems in
  let bin = Bxml.encode big in
  check bool_ "round-trips exactly" true (Tree.equal_tree big (Bxml.decode bin));
  check int_ "one synopsis entry per distinct element name" 31
    (List.length (List.sort_uniq compare (Bxml.synopsis bin)));
  check int_ "and no duplicates" 31 (List.length (Bxml.synopsis bin));
  check string_ "encoding is deterministic" bin (Bxml.encode big);
  let small = Parser.parse order_doc in
  check string_ "a later document does not inherit names" (Bxml.encode small)
    (Bxml.encode (Parser.parse order_doc));
  check (Alcotest.list string_) "its synopsis is its own"
    [ "customer"; "item"; "items"; "order"; "orderID"; "price" ]
    (List.sort compare (Bxml.synopsis (Bxml.encode small)))

let suite = suite @ [ ("many distinct names: scan, then table", `Quick, test_many_names) ]
