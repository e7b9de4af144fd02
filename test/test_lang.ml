(* Tests for the QDL/QML front-end: parser (incl. every QDL snippet from
   the paper, verbatim), semantic analysis, and the rule compiler. *)

module Defs = Demaq.Mq.Defs
module Value = Demaq.Value
module Ast = Demaq.Xquery.Ast
module Pp = Demaq.Xquery.Pp
module Qdl = Demaq.Lang.Qdl
module Analysis = Demaq.Lang.Analysis
module Compiler = Demaq.Lang.Compiler

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let parse = Qdl.parse_program

(* ---- QDL statements from the paper, verbatim ---- *)

let test_paper_queue_basic () =
  (* §2.1.1 *)
  match parse "create queue finance kind basic mode persistent" with
  | [ Qdl.Create_queue q ] ->
    check string_ "name" "finance" q.Defs.qname;
    check bool_ "kind" true (q.Defs.kind = Defs.Basic);
    check bool_ "mode" true (q.Defs.mode = Defs.Persistent)
  | _ -> Alcotest.fail "expected one queue"

let test_paper_queue_gateway () =
  (* §2.1.2 *)
  let src =
    {|create queue supplier kind outgoingGateway mode persistent
      interface supplier.wsdl port CapacityRequestPort
      using WS-ReliableMessaging policy wsrmpol.xml
      using WS-Security policy wssecpol.xml|}
  in
  match parse src with
  | [ Qdl.Create_queue q ] ->
    check bool_ "kind" true (q.Defs.kind = Defs.Outgoing_gateway);
    check (Alcotest.option string_) "interface" (Some "supplier.wsdl") q.Defs.interface;
    check (Alcotest.option string_) "port" (Some "CapacityRequestPort") q.Defs.port;
    check bool_ "extensions" true
      (q.Defs.extensions
       = [ ("WS-ReliableMessaging", "wsrmpol.xml"); ("WS-Security", "wssecpol.xml") ])
  | _ -> Alcotest.fail "expected one queue"

let test_paper_queue_echo () =
  (* §2.1.3 *)
  match parse "create queue echoQueue kind echo mode persistent" with
  | [ Qdl.Create_queue q ] -> check bool_ "echo kind" true (q.Defs.kind = Defs.Echo)
  | _ -> Alcotest.fail "expected one queue"

let test_paper_property_inherited () =
  (* §2.2 *)
  let src =
    {|create property isVIPorder as xs:boolean inherited
      queue crm, finance, legal, customer value false|}
  in
  match parse src with
  | [ Qdl.Create_property p ] ->
    check string_ "name" "isVIPorder" p.Defs.pname;
    check bool_ "type" true (p.Defs.ptype = Value.T_boolean);
    check bool_ "disposition" true (p.Defs.disposition = Defs.Inherited);
    check bool_ "queues" true
      (Defs.property_queues p = [ "crm"; "finance"; "legal"; "customer" ])
  | _ -> Alcotest.fail "expected one property"

let test_paper_property_fixed () =
  (* §2.2 *)
  let src =
    {|create property orderID as xs:string fixed
      queue order value //orderID
      queue confirmation value /confirmedOrder/ID|}
  in
  match parse src with
  | [ Qdl.Create_property p ] ->
    check bool_ "fixed" true (p.Defs.disposition = Defs.Fixed);
    check int_ "two groups" 2 (List.length p.Defs.per_queue);
    check bool_ "order expr" true
      (Option.is_some (Defs.property_expr_for p "order"));
    check bool_ "confirmation expr" true
      (Option.is_some (Defs.property_expr_for p "confirmation"));
    check bool_ "no other queue" true (Defs.property_expr_for p "x" = None)
  | _ -> Alcotest.fail "expected one property"

let test_paper_slicing () =
  (* §2.3.1 *)
  match parse "create slicing orders on orderID" with
  | [ Qdl.Create_slicing s ] ->
    check string_ "name" "orders" s.Defs.sname;
    check string_ "property" "orderID" s.Defs.slice_property
  | _ -> Alcotest.fail "expected one slicing"

let test_paper_rule_with_errorqueue () =
  (* Fig. 10 *)
  let src =
    {|create rule confirmOrder for crm errorqueue crmErrors
      if (//customerOrder) then
        let $confirmation := <confirmation>{//orderID}</confirmation>
        return do enqueue $confirmation into customer|}
  in
  match parse src with
  | [ Qdl.Create_rule r ] ->
    check string_ "name" "confirmOrder" r.Qdl.rname;
    check string_ "target" "crm" r.Qdl.target;
    check (Alcotest.option string_) "errorqueue" (Some "crmErrors") r.Qdl.rule_error_queue;
    check bool_ "body has enqueue" true (Ast.contains_update r.Qdl.body)
  | _ -> Alcotest.fail "expected one rule"

let test_paper_figure8 () =
  (* Fig. 8, verbatim *)
  let src =
    {|create rule cleanupRequest for requestMsgs
      if (qs:slice()/offer or qs:slice()/refusal) then
        do reset|}
  in
  match parse src with
  | [ Qdl.Create_rule r ] -> check string_ "target" "requestMsgs" r.Qdl.target
  | _ -> Alcotest.fail "expected one rule"

let test_paper_figure9_declarations () =
  (* Fig. 9 property + slicing + both rules parse as one program *)
  let src =
    {|create property messageRequestID as xs:string fixed
        queue invoices, finance value //requestID
      create slicing invoiceRetention on messageRequestID
      create rule resetPayedInvoices for invoiceRetention
        if (qs:slice()//timeoutNotification
            and qs:slice()/paymentConfirmation) then
        do reset
      create rule checkPayment for finance
        if (//timeoutNotification) then
          let $mRID := qs:message()//requestID
          let $payments := qs:queue()[/paymentConfirmation]
          return
            if (not($payments[//requestID = $mRID])) then
              let $invoice := qs:queue("invoices")[//requestID = $mRID]
              let $reminder := <reminder>{$mRID}</reminder>
              return do enqueue $reminder into customer
            else ()|}
  in
  let p = parse src in
  check int_ "four statements" 4 (List.length p);
  check int_ "two rules" 2 (List.length (Qdl.rules p))

let test_multiline_program () =
  let src =
    {|(: a comment between statements :)
      create queue a kind basic mode persistent priority 5
      create queue b kind basic mode transient errorqueue a
      create rule r for a if (//x) then do enqueue <y/> into b|}
  in
  let p = parse src in
  check int_ "three statements" 3 (List.length p);
  match Qdl.queues p with
  | [ qa; qb ] ->
    check int_ "priority" 5 qa.Defs.priority;
    check bool_ "transient" true (qb.Defs.mode = Defs.Transient);
    check (Alcotest.option string_) "errorqueue" (Some "a") qb.Defs.error_queue
  | _ -> Alcotest.fail "expected two queues"

let test_inline_schema () =
  let src =
    {|create queue q kind basic mode persistent
        schema { element order { orderID } element orderID { text } }|}
  in
  match parse src with
  | [ Qdl.Create_queue q ] -> check bool_ "schema parsed" true (Option.is_some q.Defs.schema)
  | _ -> Alcotest.fail "expected one queue"

let qdl_errors =
  [
    "create table x";
    "create queue q kind bogus mode persistent";
    "create queue q kind basic mode sometimes";
    "create queue q mode persistent kind basic";  (* fixed order, like the paper *)
    "create property p as xs:date queue q value 1";
    "create property p as xs:string";
    "create slicing s over p";
    "create rule r for";
    "create rule r for q if (";
    "creat queue q kind basic mode persistent";
  ]

let test_qdl_errors () =
  List.iter
    (fun src ->
      match Qdl.parse_program_result src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected QDL error for: %s" src)
    qdl_errors

let test_error_position_reported () =
  match Qdl.parse_program_result "create queue q kind basic mode persistent\ncreate bogus" with
  | Error msg -> check bool_ "mentions line 2" true
    (let rec has i = i + 6 <= String.length msg && (String.sub msg i 6 = "line 2" || has (i+1)) in
     has 0)
  | Ok _ -> Alcotest.fail "expected error"

(* ---- semantic analysis ---- *)

let analyze src = Analysis.analyze (parse src)

let errors_of r =
  List.filter (fun d -> d.Analysis.severity = Analysis.Error) r.Analysis.diagnostics

let test_analysis_clean () =
  let r =
    analyze
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create property p as xs:string queue a value //id
        create slicing s on p
        create rule r1 for a if (//x) then do enqueue <y/> into b
        create rule r2 for s if (qs:slice()) then do reset|}
  in
  check bool_ "ok" true r.Analysis.ok;
  check int_ "no errors" 0 (List.length (errors_of r))

let expect_analysis_error src fragment () =
  let r = analyze src in
  check bool_ "not ok" false r.Analysis.ok;
  let msgs = List.map (fun d -> d.Analysis.message) (errors_of r) in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  check bool_ (Printf.sprintf "mentions %s in %s" fragment (String.concat "; " msgs))
    true
    (List.exists (fun m -> contains m fragment) msgs)

let analysis_cases =
  [
    ( "unknown rule target",
      {|create queue a kind basic mode persistent
        create rule r for nowhere if (//x) then do enqueue <y/> into a|},
      "unknown queue or slicing" );
    ( "unknown enqueue target",
      {|create queue a kind basic mode persistent
        create rule r for a if (//x) then do enqueue <y/> into nowhere|},
      "unknown queue nowhere" );
    ( "property unknown queue",
      {|create property p as xs:string queue ghost value //id|},
      "unknown queue ghost" );
    ( "slicing unknown property",
      {|create slicing s on ghost|},
      "unknown property ghost" );
    ( "qs:slice outside slicing",
      {|create queue a kind basic mode persistent
        create rule r for a if (qs:slice()) then do reset|},
      "only available in rules attached to slicings" );
    ( "duplicate queue",
      {|create queue a kind basic mode persistent
        create queue a kind basic mode persistent|},
      "duplicate definition" );
    ( "rule errorqueue unknown",
      {|create queue a kind basic mode persistent
        create rule r for a errorqueue ghost if (//x) then do enqueue <y/> into a|},
      "unknown error queue" );
    ( "reliable messaging needs persistence",
      {|create queue g kind outgoingGateway mode transient
        using WS-ReliableMessaging policy pol.xml|},
      "persistent" );
  ]

let test_analysis_warning_no_update () =
  let r =
    analyze
      {|create queue a kind basic mode persistent
        create rule r for a if (//x) then ()|}
  in
  check bool_ "still ok" true r.Analysis.ok;
  check int_ "one warning" 1
    (List.length
       (List.filter (fun d -> d.Analysis.severity = Analysis.Warning) r.Analysis.diagnostics))

(* ---- compiler ---- *)

let compile src = Compiler.compile (parse src)

let body_of plan rule =
  let r = List.find (fun r -> r.Compiler.cr_name = rule) plan.Compiler.rules in
  Pp.to_string r.Compiler.cr_body

let test_compiler_groups_rules () =
  let c =
    compile
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create rule r1 for a if (//x) then do enqueue <y/> into b
        create rule r2 for a if (//z) then do enqueue <w/> into b
        create rule r3 for b if (//x) then do enqueue <v/> into a|}
  in
  let pa = Option.get (Compiler.plan_for c "a") in
  check int_ "two rules on a" 2 (List.length pa.Compiler.rules);
  check int_ "the plan guards both" 2
    (List.length (Demaq.Xquery.Plan.rules pa.Compiler.exec));
  check bool_ "no plan for ghost" true (Compiler.plan_for c "ghost" = None)

let test_compiler_queue_default () =
  let c =
    compile
      {|create queue a kind basic mode persistent
        create rule r for a if (qs:queue()[//x]) then do enqueue <y/> into a|}
  in
  let plan = Option.get (Compiler.plan_for c "a") in
  let printed = body_of plan "r" in
  check bool_ ("default supplied: " ^ printed) true
    (let contains s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     contains printed {|qs:queue("a")|})

let test_compiler_inlines_fixed_property () =
  let c =
    compile
      {|create queue order kind basic mode persistent
        create property orderID as xs:string fixed queue order value //orderID
        create rule r for order
          if (qs:property("orderID") = "o1") then do enqueue <hit/> into order|}
  in
  let plan = Option.get (Compiler.plan_for c "order") in
  let printed = body_of plan "r" in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check bool_ ("property call gone: " ^ printed) false (contains printed "qs:property");
  (* the inlined //orderID is then fused into one descendant step *)
  check bool_ ("path inlined: " ^ printed) true
    (contains printed "/descendant::orderID")

let test_compiler_no_inline_for_free_property () =
  let c =
    compile
      {|create queue order kind basic mode persistent
        create property note as xs:string queue order value //note
        create rule r for order
          if (qs:property("note")) then do enqueue <hit/> into order|}
  in
  let plan = Option.get (Compiler.plan_for c "order") in
  let printed = body_of plan "r" in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (* free properties may be set explicitly, so the call must survive *)
  check bool_ "property call kept" true (contains printed "qs:property")

let test_compiler_constant_folding () =
  let c =
    compile
      {|create queue a kind basic mode persistent
        create rule r for a
          if (1 + 1 = 2) then do enqueue <y/> into a|}
  in
  let plan = Option.get (Compiler.plan_for c "a") in
  match (List.hd plan.Compiler.rules).Compiler.cr_body with
  | Ast.Enqueue _ -> ()  (* the whole conditional folded away *)
  | other -> Alcotest.failf "expected folded body, got %s" (Pp.to_string other)

let test_explain () =
  let c =
    compile
      {|create queue a kind basic mode persistent
        create rule r for a errorqueue a if (//x) then do enqueue <y/> into a|}
  in
  let text = Compiler.explain c in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  check bool_ "mentions plan" true (contains "plan for a");
  check bool_ "mentions rule" true (contains "rule r");
  check bool_ "mentions error queue" true (contains "errors -> a")

let suite =
  [
    ("paper: basic queue", `Quick, test_paper_queue_basic);
    ("paper: gateway queue with WS extensions", `Quick, test_paper_queue_gateway);
    ("paper: echo queue", `Quick, test_paper_queue_echo);
    ("paper: inherited property", `Quick, test_paper_property_inherited);
    ("paper: fixed property, two queue groups", `Quick, test_paper_property_fixed);
    ("paper: slicing", `Quick, test_paper_slicing);
    ("paper: rule with errorqueue (Fig. 10)", `Quick, test_paper_rule_with_errorqueue);
    ("paper: cleanup rule (Fig. 8)", `Quick, test_paper_figure8);
    ("paper: retention program (Fig. 9)", `Quick, test_paper_figure9_declarations);
    ("multi-statement program", `Quick, test_multiline_program);
    ("inline schema option", `Quick, test_inline_schema);
    ("QDL errors", `Quick, test_qdl_errors);
    ("QDL error positions", `Quick, test_error_position_reported);
    ("analysis: clean program", `Quick, test_analysis_clean);
  ]
  @ List.map
      (fun (name, src, frag) ->
        ("analysis: " ^ name, `Quick, expect_analysis_error src frag))
      analysis_cases
  @ [
      ("analysis: no-update warning", `Quick, test_analysis_warning_no_update);
      ("compiler groups rules by queue", `Quick, test_compiler_groups_rules);
      ("compiler supplies qs:queue default", `Quick, test_compiler_queue_default);
      ("compiler inlines fixed properties", `Quick, test_compiler_inlines_fixed_property);
      ("compiler keeps free property calls", `Quick, test_compiler_no_inline_for_free_property);
      ("compiler folds constants", `Quick, test_compiler_constant_folding);
      ("explain output", `Quick, test_explain);
    ]
