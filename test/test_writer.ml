(* Tests for the byte writers: the bXML payload of
   [do enqueue <constructor>] (checked against [Bxml.encode] of the tree
   a constructor builds), the growable writer behind extra blobs and WAL records
   (checked against a Buffer encoder kept here as the oracle), and the
   lazy decode of rule-created messages. *)

module Tree = Demaq.Xml.Tree
module Bxml = Demaq.Xml.Bxml
module Value = Demaq.Xquery.Value
module Eval = Demaq.Xquery.Eval
module Update = Demaq.Xquery.Update
module Message = Demaq.Message
module Wal = Demaq.Store.Wal
module Crc32 = Demaq.Store.Crc32
module S = Demaq.Server

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

(* ---- template payloads: differential against [construct] ---- *)

let node src = Eval.node_of_tree (Demaq.xml src)
let first_child src = List.hd (Tree.children (node src))

(* What a hole can yield: the empty sequence, one atomic, several
   atomics, and nodes whose names the constructor does not mention
   (elements, text, attributes, comments, a document). The flag says
   whether the value holds atomics only. *)
let pool =
  [|
    ([], true);
    ([ Value.Atom (Value.String "v") ], true);
    ([ Value.Atom (Value.Integer 42) ], true);
    ([ Value.Atom (Value.String "p"); Value.Atom (Value.Integer 3); Value.Atom (Value.String "") ], true);
    ([ Value.Atom (Value.String "") ], true);
    ([ Value.Atom (Value.Decimal 2.5) ], true);
    ([ Value.Node (node "<fresh k='v'><deeper>t</deeper>tail</fresh>") ], false);
    ([ Value.Node (first_child "<w>txt</w>") ], false);
    ([ Value.Node (List.hd (Tree.attributes (node "<w at='av'/>"))) ], false);
    ([ Value.Node (first_child "<w><!--cm--></w>") ], false);
    ( [ Value.Atom (Value.String "a"); Value.Node (node "<other/>"); Value.Atom (Value.Integer 1) ],
      false );
    ([ Value.Node (Eval.doc_node_of_tree (Demaq.xml "<docroot><x/></docroot>")) ], false);
    ( [ Value.Node (List.hd (Tree.attributes (node "<w b='bv'/>"))); Value.Atom (Value.String "z") ],
      false );
  |]

let vars = List.init (Array.length pool) (fun i -> (Printf.sprintf "v%d" i, fst pool.(i)))

type apiece = A_lit of string | A_hole of int

type piece =
  | Lit of string
  | Hole of int
  | Attr_ctor of int  (* {attribute w {$v}} *)
  | Elem of elem
  | Enqueue_in of elem  (* {do enqueue <...> into q2} *)

and elem = { tag : string; attrs : (string * apiece list) list; content : piece list }

(* Inputs whose payload must be the bytes of [Bxml.encode]. *)
let edge_cases =
  let el ?(attrs = []) content = { tag = "a"; attrs; content } in
  [
    (* one empty-string atom: a zero-length text token *)
    el [ Hole 4 ];
    el [ Elem (el [ Hole 4 ]); Hole 4 ];
    (* a hole that yields nothing: no token *)
    el [ Hole 0 ];
    el [ Hole 0; Elem (el []); Hole 0; Hole 0 ];
    (* atoms joined by spaces within one hole, not across adjacent holes *)
    el [ Hole 3; Hole 3; Hole 2; Hole 5 ];
    el [ Lit "t"; Hole 3; Lit "uv"; Hole 1 ];
    (* static attributes that contain holes *)
    el ~attrs:[ ("x", [ A_lit "t"; A_hole 1; A_lit "uv"; A_hole 3 ]); ("y", [ A_hole 4 ]) ] [];
    el ~attrs:[ ("x", [ A_hole 0 ]); ("y", [ A_lit "w w" ]) ] [ Hole 2 ];
    (* holes that yield nodes: the payload is encoded from a tree *)
    el ~attrs:[ ("x", [ A_lit "t" ]) ] [ Lit "t"; Hole 6; Lit "uv"; Hole 7; Hole 1 ];
    el [ Hole 1; Attr_ctor 2; Hole 1; Hole 9 ];
    (* an attribute node ahead of a nested element: the computed
       attribute follows the element's own, and [b]'s names come first *)
    {
      tag = "b";
      attrs = [ ("x", [ A_lit "t"; A_hole 3 ]) ];
      content = [ Hole 8; Elem { tag = "a"; attrs = [ ("y", [ A_lit "t" ]) ]; content = [] } ];
    };
    (* a do enqueue inside a hole: its update comes first *)
    el [ Enqueue_in (el [ Hole 1 ]); Lit "t"; Hole 2 ];
    el [ Hole 6; Enqueue_in (el [ Hole 6; Hole 4 ]) ];
  ]

let gen_elem =
  let open QCheck.Gen in
  let hole = int_bound (Array.length pool - 1) in
  let lit = oneofl [ "t"; "uv"; "w w" ] in
  let apiece = frequency [ (1, map (fun s -> A_lit s) lit); (1, map (fun i -> A_hole i) hole) ] in
  let attrs =
    oneofl [ []; [ "x" ]; [ "y" ]; [ "x"; "y" ] ] >>= fun names ->
    flatten_l (List.map (fun n -> map (fun p -> (n, p)) (list_size (int_range 0 3) apiece)) names)
  in
  fix
    (fun self depth ->
      let piece =
        frequency
          ([
             (2, map (fun s -> Lit s) lit);
             (3, map (fun i -> Hole i) hole);
             (1, map (fun i -> Attr_ctor i) hole);
           ]
          @
          if depth > 0 then
            [
              (2, map (fun e -> Elem e) (self (depth - 1)));
              (1, map (fun e -> Enqueue_in e) (self (depth - 1)));
            ]
          else [])
      in
      map3
        (fun tag attrs content -> { tag; attrs; content })
        (oneofl [ "a"; "b"; "c" ])
        attrs
        (list_size (int_range 0 4) piece))
    3
  |> fun random -> frequency [ (1, oneofl edge_cases); (4, random) ]

let rec render buf e =
  Printf.bprintf buf "<%s" e.tag;
  List.iter
    (fun (n, pieces) ->
      Printf.bprintf buf " %s=\"" n;
      List.iter
        (function A_lit s -> Buffer.add_string buf s | A_hole i -> Printf.bprintf buf "{$v%d}" i)
        pieces;
      Buffer.add_char buf '"')
    e.attrs;
  if e.content = [] then Buffer.add_string buf "/>"
  else begin
    Buffer.add_char buf '>';
    List.iter
      (function
        | Lit s -> Buffer.add_string buf s
        | Hole i -> Printf.bprintf buf "{$v%d}" i
        | Attr_ctor i -> Printf.bprintf buf "{attribute w {$v%d}}" i
        | Elem e -> render buf e
        | Enqueue_in e ->
          Buffer.add_string buf "{do enqueue ";
          render buf e;
          Buffer.add_string buf " into q2}")
      e.content;
    Printf.bprintf buf "</%s>" e.tag
  end

let source e =
  let buf = Buffer.create 64 in
  render buf e;
  Buffer.contents buf

(* The tree and the updates of the holes' own [do enqueue]s. *)
let constructed_with_updates src =
  match Eval.run ~vars src with
  | [ Value.Node n ], updates -> (
    match Tree.node_tree n with Some t -> (t, updates) | None -> Alcotest.fail "no tree")
  | _ -> Alcotest.fail "constructor did not yield one node"

(* The payload's bytes and the updates emitted before its own. *)
let streamed_with_updates src =
  match Eval.run ~vars (Printf.sprintf "do enqueue %s into q" src) with
  | [], updates -> (
    match List.rev updates with
    | Update.Enqueue { payload; queue = "q"; _ } :: inner -> (payload, List.rev inner)
    | _ -> Alcotest.fail "the payload's enqueue is not the last update")
  | _ -> Alcotest.fail "do enqueue yielded items"

let constructed src = fst (constructed_with_updates src)
let streamed src = fst (streamed_with_updates src)

let prop_template_differential =
  QCheck.Test.make ~name:"template bytes decode to the constructed tree" ~count:500
    ~long_factor:50
    (QCheck.make ~print:source gen_elem)
    (fun e ->
      let src = source e in
      let tree, inner = constructed_with_updates src in
      let bytes, inner' = streamed_with_updates src in
      Bxml.validate bytes
      && String.equal bytes (Bxml.encode tree)
      && Bxml.decode bytes = tree && inner = inner')

let test_template_matches_encode () =
  (* the order-fanout shape: hoisted variables, nested static elements *)
  let src =
    "<invoice><orderID>{$v1}</orderID><customer>{$v2}</customer><lines>{$v3}</lines></invoice>"
  in
  check string_ "bytes of Bxml.encode" (Bxml.encode (constructed src)) (streamed src)

let test_nested_enqueue_in_hole () =
  (* a hole that writes its own payload while the outer one is open *)
  match
    Eval.run ~vars "do enqueue <a x='{$v1}'>{do enqueue <b>{$v2}</b> into q2}t{$v6}</a> into q1"
  with
  | [], [ Update.Enqueue inner; Update.Enqueue outer ] ->
    check string_ "inner queue" "q2" inner.queue;
    check string_ "inner payload" (Bxml.encode (Demaq.xml "<b>42</b>")) inner.payload;
    check string_ "outer queue" "q1" outer.queue;
    check bool_ "outer payload" true
      (Bxml.decode outer.payload
      = constructed "<a x='{$v1}'>t{$v6}</a>")
  | _ -> Alcotest.fail "expected two enqueues"

let test_failed_hole_releases_writer () =
  (match Eval.run ~vars "do enqueue <a><b>{$v1}</b>{1 idiv 0}</a> into q" with
   | exception Eval.Eval_error _ -> ()
   | _ -> Alcotest.fail "division by zero evaluated");
  let src = "<a><b>{$v1}</b>{$v2}</a>" in
  check string_ "next payload intact" (Bxml.encode (constructed src)) (streamed src)

(* ---- byte writer: extra blobs and WAL records against a Buffer oracle ---- *)

(* The encoder the writer replaced, byte by byte. *)
module Oracle = struct
  let int buf i =
    for k = 0 to 7 do
      Buffer.add_char buf (Char.unsafe_chr ((i asr (8 * k)) land 0xFF))
    done

  let string buf s =
    int buf (String.length s);
    Buffer.add_string buf s

  let list buf put items =
    int buf (List.length items);
    List.iter (put buf) items

  let atomic buf (a : Value.atomic) =
    match a with
    | Value.Boolean b ->
      Buffer.add_char buf 'b';
      Buffer.add_char buf (if b then '\001' else '\000')
    | Value.Integer i ->
      Buffer.add_char buf 'i';
      int buf i
    | Value.Decimal f ->
      Buffer.add_char buf 'd';
      string buf (Printf.sprintf "%h" f)
    | Value.String s ->
      Buffer.add_char buf 's';
      string buf s
    | Value.Untyped s ->
      Buffer.add_char buf 'u';
      string buf s

  let extra (prov : Message.provenance) props memberships =
    let buf = Buffer.create 64 in
    list buf
      (fun buf (name, a) ->
        string buf name;
        atomic buf a)
      props;
    list buf
      (fun buf (m : Message.membership) ->
        string buf m.m_slicing;
        string buf m.m_key;
        int buf m.m_lifetime)
      memberships;
    string buf prov.p_flow;
    int buf prov.p_parent;
    string buf prov.p_cause;
    Buffer.contents buf

  let op buf = function
    | Wal.Insert { rid; queue; payload; extra; enqueued_at } ->
      Buffer.add_char buf 'I';
      int buf rid;
      string buf queue;
      string buf payload;
      string buf extra;
      int buf enqueued_at
    | Wal.Mark_processed { rid } ->
      Buffer.add_char buf 'P';
      int buf rid
    | Wal.Slice_reset { slicing; key; lifetime } ->
      Buffer.add_char buf 'R';
      string buf slicing;
      string buf key;
      int buf lifetime
    | Wal.Delete { rid; image } ->
      Buffer.add_char buf 'D';
      int buf rid;
      string buf image

  let frame record =
    let body = Buffer.create 256 in
    (match record with
     | Wal.Commit { txn; ops } ->
       Buffer.add_char body 'C';
       int body txn;
       list body op ops
     | Wal.Checkpoint -> Buffer.add_char body 'K');
    let body = Buffer.contents body in
    let buf = Buffer.create (16 + String.length body) in
    int buf (String.length body);
    int buf (Crc32.string body);
    Buffer.add_string buf body;
    Buffer.contents buf
end

let gen_int =
  QCheck.Gen.(oneof [ small_signed_int; int; oneofl [ min_int; max_int; -1; 0; 1 lsl 40 ] ])

let gen_str = QCheck.Gen.(string_size ~gen:char (int_range 0 40))

let gen_atomic =
  QCheck.Gen.(
    oneof
      [
        map (fun b -> Value.Boolean b) bool;
        map (fun i -> Value.Integer i) gen_int;
        map (fun f -> Value.Decimal f) float;
        map (fun s -> Value.String s) gen_str;
        map (fun s -> Value.Untyped s) gen_str;
      ])

let gen_extra =
  QCheck.Gen.(
    triple
      (map3
         (fun p_flow p_parent p_cause -> { Message.p_flow; p_parent; p_cause })
         gen_str gen_int gen_str)
      (small_list (pair gen_str gen_atomic))
      (small_list
         (map3
            (fun m_slicing m_key m_lifetime -> { Message.m_slicing; m_key; m_lifetime })
            gen_str gen_str gen_int)))

let prop_extra_oracle =
  QCheck.Test.make ~name:"extra blob = Buffer oracle" ~count:300 ~long_factor:20
    (QCheck.make gen_extra)
    (fun (provenance, props, memberships) ->
      String.equal
        (Message.encode_extra ~provenance ~props ~memberships ())
        (Oracle.extra provenance props memberships))

let gen_op =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun (rid, queue) (payload, extra) enqueued_at ->
            Wal.Insert { rid; queue; payload; extra; enqueued_at })
          (pair gen_int gen_str)
          (pair (string_size ~gen:char (int_range 0 3000)) gen_str)
          gen_int;
        map (fun rid -> Wal.Mark_processed { rid }) gen_int;
        map3
          (fun slicing key lifetime -> Wal.Slice_reset { slicing; key; lifetime })
          gen_str gen_str gen_int;
        map2 (fun rid image -> Wal.Delete { rid; image }) gen_int gen_str;
      ])

let gen_record =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun txn ops -> Wal.Commit { txn; ops }) gen_int (list_size (int_range 0 6) gen_op));
        (1, return Wal.Checkpoint);
      ])

let prop_wal_oracle =
  QCheck.Test.make ~name:"WAL bytes = Buffer oracle" ~count:100 ~long_factor:20
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 8) gen_record))
    (fun records ->
      let path = Filename.temp_file "demaq-writer" ".log" in
      let wal = Wal.open_log ~sync:Wal.Sync_never path in
      List.iter (Wal.append wal) records;
      Wal.close wal;
      let written = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      String.equal written (String.concat "" (List.map Oracle.frame records)))

(* ---- lazy decode of rule-created messages ---- *)

let cascade_program ~schema =
  Printf.sprintf
    {|
    create queue orders kind basic mode persistent
    create queue jobs kind basic mode persistent %s
    create queue done kind basic mode persistent
    create rule toJob for orders
      do enqueue <job><id>{string(//id)}</id><note>n</note></job> into jobs
    create rule finish for jobs
      do enqueue <finished>{string(//job/id)}-{count(//note)}</finished> into done
  |}
    (if schema then "schema { element job { id, note } element id { text } element note { text } }"
     else "")

let test_cascade_decodes_once () =
  List.iter
    (fun schema ->
      let label = if schema then "schema'd queue" else "plain queue" in
      let srv = S.deploy (cascade_program ~schema) in
      (match S.inject srv ~queue:"orders" (Demaq.xml "<order><id>o7</id></order>") with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e));
      ignore (S.run srv);
      let _, decodes, decoded_bytes = S.admission_stats srv in
      check int_ (label ^ ": the job is decoded once") 1 decodes;
      check bool_ (label ^ ": its bytes are counted") true (decoded_bytes > 0);
      match S.queue_contents srv "done" with
      | [ m ] ->
        check string_ (label ^ ": downstream rule saw the content") "<finished>o7-1</finished>"
          (Demaq.Xml.Serializer.to_string (Message.body m))
      | l -> Alcotest.failf "%s: %d finished messages" label (List.length l))
    [ false; true ]

(* A rule's payload that the target queue's schema rejects is decoded
   once, for the check, and that tree is the routed error's initial
   message. *)
let test_rejected_payload_decoded_once () =
  let srv =
    S.deploy
      {|
      create queue orders kind basic mode persistent
      create queue jobs kind basic mode persistent
        schema { element job { id } element id { text } }
      create queue errs kind basic mode persistent
      create rule toJob for orders errorqueue errs
        do enqueue <wrong><id>{string(//id)}</id></wrong> into jobs
    |}
  in
  (match S.inject srv ~queue:"orders" (Demaq.xml "<order><id>o7</id></order>") with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e));
  ignore (S.run srv);
  let _, decodes, decoded_bytes = S.admission_stats srv in
  check int_ "one counted decode" 1 decodes;
  check bool_ "its bytes are counted" true (decoded_bytes > 0);
  check int_ "nothing admitted to jobs" 0 (List.length (S.queue_contents srv "jobs"));
  match S.queue_contents srv "errs" with
  | [ m ] ->
    let error = Demaq.Xml.Serializer.to_string (Message.body m) in
    let sub = "<wrong><id>o7</id></wrong>" in
    let n = String.length sub in
    let rec has i = i + n <= String.length error && (String.sub error i n = sub || has (i + 1)) in
    check bool_ ("error carries the payload: " ^ error) true (has 0)
  | l -> Alcotest.failf "%d routed errors" (List.length l)

let suite =
  [
    ("template = Bxml.encode on the fanout shape", `Quick, test_template_matches_encode);
    ("enqueue inside a template hole", `Quick, test_nested_enqueue_in_hole);
    ("failed hole releases the writer", `Quick, test_failed_hole_releases_writer);
    ("rule-created message decoded once", `Quick, test_cascade_decodes_once);
    ("schema-rejected payload decoded once", `Quick, test_rejected_payload_decoded_once);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_template_differential; prop_extra_oracle; prop_wal_oracle ]
