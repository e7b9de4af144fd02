(* Tests for condition pre-filtering (XML filtering, §4.4.1): the static
   requirement analysis and the engine fast path. *)

module Ast = Demaq.Xquery.Ast
module Xq = Demaq.Xquery.Parser
module Prefilter = Demaq.Lang.Prefilter
module S = Demaq.Server

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let reqs src = Prefilter.rule_requirements (Xq.parse src)

let expect_reqs src expected () =
  check (Alcotest.list Alcotest.string) src expected (reqs src)

let analysis_cases =
  [
    (* simple existence conditions *)
    ("descendant path", "if (//order) then do enqueue <x/> into q", [ "order" ]);
    ("child path", "if (/envelope/order) then do enqueue <x/> into q",
     [ "envelope"; "order" ]);
    ("path spine with predicate",
     "if (//order[id = 3]/item) then do enqueue <x/> into q", [ "item"; "order" ]);
    ("and unions",
     "if (//a and //b) then do enqueue <x/> into q", [ "a"; "b" ]);
    ("or intersects",
     "if (//a or //b) then do enqueue <x/> into q", []);
    ("or with common requirement",
     "if ((//a and //shared) or (//b and //shared)) then do enqueue <x/> into q",
     [ "shared" ]);
    ("comparison requires both operand paths",
     "if (//a = //b) then do enqueue <x/> into q", [ "a"; "b" ]);
    ("comparison with literal",
     "if (//kind = 'urgent') then do enqueue <x/> into q", [ "kind" ]);
    ("string() operand unwraps",
     "if (string(//ref) = 'x') then do enqueue <x/> into q", [ "ref" ]);
    ("exists unwraps", "if (exists(//tag)) then do enqueue <x/> into q", [ "tag" ]);
    ("qs:message rooted", "if (qs:message()//note) then do enqueue <x/> into q",
     [ "note" ]);
    (* conservative: no requirement *)
    ("qs:queue not about this message",
     "if (qs:queue(\"other\")//a) then do enqueue <x/> into q", []);
    ("not() gives nothing", "if (not(//a)) then do enqueue <x/> into q", []);
    ("count comparison gives nothing",
     "if (count(//a) = 0) then do enqueue <x/> into q", []);
    ("variable path gives nothing",
     "let $v := //a return if ($v/b) then do enqueue <x/> into q else ()", []);
    ("non-conditional body gives nothing", "do enqueue <x/> into q", []);
    ("else with update disables the guard",
     "if (//a) then do enqueue <x/> into q else do enqueue <y/> into q", []);
    ("else without update keeps the guard",
     "if (//a) then do enqueue <x/> into q else ()", [ "a" ]);
  ]

let test_element_names () =
  let names = Prefilter.element_names (Demaq.xml "<a><b/><c><b/><d>t</d></c></a>") in
  check bool_ "all names found" true
    (List.for_all (fun n -> Prefilter.Names.mem n names) [ "a"; "b"; "c"; "d" ]);
  check bool_ "absent name" false (Prefilter.Names.mem "x" names);
  check bool_ "may_match yes" true
    (Prefilter.may_match ~requirements:[ "a"; "d" ] ~names);
  check bool_ "may_match no" false
    (Prefilter.may_match ~requirements:[ "a"; "zz" ] ~names)

(* ---- engine integration ---- *)

let broker_program =
  (* a brokering rule set: each rule cares about one message type *)
  "create queue in kind basic mode persistent\n\
   create queue out kind basic mode persistent\n"
  ^ String.concat "\n"
      (List.init 20 (fun i ->
           Printf.sprintf
             "create rule r%d for in if (//type%d) then do enqueue <hit n=\"%d\"/> into out"
             i i i))

(* the reference plan shape carries no pre-filter requirements *)
let run_broker ~use_prefilter =
  let srv = S.deploy ~reference:(not use_prefilter) broker_program in
  for i = 0 to 19 do
    ignore
      (S.inject srv ~queue:"in"
         (Demaq.xml (Printf.sprintf "<msg><type%d/></msg>" i)))
  done;
  ignore (S.run srv);
  let out =
    List.sort compare
      (List.map
         (fun m -> Demaq.xml_to_string (Demaq.Message.body m))
         (S.queue_contents srv "out"))
  in
  (out, S.stats srv)

let test_prefilter_equivalent () =
  let out_on, stats_on = run_broker ~use_prefilter:true in
  let out_off, stats_off = run_broker ~use_prefilter:false in
  check bool_ "same output" true (out_on = out_off);
  check int_ "20 hits either way" 20 (List.length out_on);
  (* 20 messages x 20 rules; with prefiltering only the matching rule (and
     the hit messages' zero rules) evaluate *)
  check bool_ "skips counted" true (stats_on.S.prefilter_skips >= 19 * 20 - 20);
  check bool_ "fewer evaluations" true
    (stats_on.S.rule_evaluations < stats_off.S.rule_evaluations);
  check int_ "no skips when disabled" 0 stats_off.S.prefilter_skips

let test_prefilter_never_skips_matching () =
  (* a message containing every required name is evaluated normally *)
  let srv = S.deploy broker_program in
  ignore
    (S.inject srv ~queue:"in"
       (Demaq.xml
          ("<msg>"
          ^ String.concat "" (List.init 20 (fun i -> Printf.sprintf "<type%d/>" i))
          ^ "</msg>")));
  ignore (S.run srv);
  check int_ "all rules fired" 20 (List.length (S.queue_contents srv "out"))

let test_explain_shows_requirements () =
  let srv = S.deploy broker_program in
  let text = S.explain srv in
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  check bool_ "requirements printed" true (has "requires <type0>")

let suite =
  List.map (fun (n, src, expected) -> (n, `Quick, expect_reqs src expected)) analysis_cases
  @ [
      ("element name synopsis", `Quick, test_element_names);
      ("prefilter preserves behaviour", `Quick, test_prefilter_equivalent);
      ("prefilter never skips a match", `Quick, test_prefilter_never_skips_matching);
      ("explain shows requirements", `Quick, test_explain_shows_requirements);
    ]
