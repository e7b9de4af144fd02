(* Tests for the compile-on-deploy rule plans: guarded merged plans,
   common-subexpression hoisting, static unsatisfiability pruning,
   conflict footprints and footprint-driven dispatch. *)

module Ast = Demaq.Xquery.Ast
module Plan_ir = Demaq.Xquery.Plan
module Eval = Demaq.Xquery.Eval
module Context = Demaq.Xquery.Context
module Value = Demaq.Xquery.Value
module Update = Demaq.Xquery.Update
module Qdl = Demaq.Lang.Qdl
module Analysis = Demaq.Lang.Analysis
module Compiler = Demaq.Lang.Compiler
module Message = Demaq.Message
module S = Demaq.Server

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let compile src = Compiler.compile (Qdl.parse_program src)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- guard sharing and common-subexpression hoisting ---- *)

let test_guard_sharing_and_cse () =
  let c =
    compile
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create rule r1 for a if (//x)
          then do enqueue <y1>{count(//p) + count(//q) + count(//r)}</y1> into b
        create rule r2 for a if (//x)
          then do enqueue <y2>{count(//p) + count(//q) + count(//r)}</y2> into b
        create rule r3 for a if (//z) then do enqueue <y3/> into b|}
  in
  let plan = Option.get (Compiler.plan_for c "a") in
  let exec = plan.Compiler.exec in
  (match Plan_ir.rules exec with
   | [ g1; g2; g3 ] ->
     check bool_ "r1 and r2 share a guard id" true
       (g1.Plan_ir.g_guard_id = g2.Plan_ir.g_guard_id);
     check bool_ "r3 has its own guard id" true
       (g3.Plan_ir.g_guard_id <> g1.Plan_ir.g_guard_id);
     check bool_ "r1 uses a hoisted binding" true (g1.Plan_ir.g_bindings <> []);
     (* r3 shares only the hoisted //-root, not the count sum *)
     check bool_ "r1 needs more bindings than r3" true
       (List.length g1.Plan_ir.g_bindings > List.length g3.Plan_ir.g_bindings)
   | l -> Alcotest.failf "expected three guarded rules, got %d" (List.length l));
  check int_ "two distinct guard evaluations" 2 exec.Plan_ir.p_n_guards;
  check bool_ "shared count-sum hoisted into a plan binding" true
    (Plan_ir.bindings exec <> []);
  check bool_ "explain shows the binding" true
    (contains (Compiler.explain c) "binding $#plan")

let test_unstable_guard_not_shared () =
  (* qs:queue() reads the store: identical text, but evaluating it once
     for two rules is unsound, so each keeps its own guard id. *)
  let c =
    compile
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create rule r1 for a if (qs:queue()[//x]) then do enqueue <y1/> into b
        create rule r2 for a if (qs:queue()[//x]) then do enqueue <y2/> into b|}
  in
  let plan = Option.get (Compiler.plan_for c "a") in
  check int_ "no sharing of unstable guards" 2 plan.Compiler.exec.Plan_ir.p_n_guards

(* ---- static unsatisfiability pruning ---- *)

let pruning_program =
  {|create queue a kind basic mode persistent
      schema { element m { text } }
    create queue b kind basic mode persistent
    create rule live for a if (//m) then do enqueue <hit/> into b
    create rule dead for a if (//ghost) then do enqueue <miss/> into b|}

let test_pruning () =
  let c = compile pruning_program in
  let plan = Option.get (Compiler.plan_for c "a") in
  check int_ "one surviving rule" 1 (List.length plan.Compiler.rules);
  check bool_ "live survived" true
    ((List.hd plan.Compiler.rules).Compiler.cr_name = "live");
  (match plan.Compiler.pruned with
   | [ (name, reason) ] ->
     check bool_ "dead pruned" true (name = "dead");
     check bool_ "reason names the element" true (contains reason "ghost")
   | l -> Alcotest.failf "expected one pruned rule, got %d" (List.length l));
  check int_ "exec plan dropped it too" 1 (List.length (Plan_ir.rules plan.Compiler.exec));
  check bool_ "explain reports the pruning" true
    (contains (Compiler.explain c) "pruned rule dead")

let test_pruned_rule_never_runs () =
  let srv = S.deploy pruning_program in
  ignore (S.inject srv ~queue:"a" (Demaq.xml "<m>x</m>"));
  ignore (S.run srv);
  let bodies q =
    List.map (fun m -> Demaq.xml_to_string (Message.body m)) (S.queue_contents srv q)
  in
  check bool_ "live fired" true (bodies "b" = [ "<hit/>" ]);
  check int_ "exactly one rule evaluation" 1 (S.stats srv).S.rule_evaluations

let test_no_pruning_under_open_vocabulary () =
  (* no schema: the vocabulary is open, nothing may be pruned *)
  let c =
    compile
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create rule dead for a if (//ghost) then do enqueue <miss/> into b|}
  in
  let plan = Option.get (Compiler.plan_for c "a") in
  check int_ "nothing pruned" 0 (List.length plan.Compiler.pruned);
  check int_ "rule kept" 1 (List.length plan.Compiler.rules)

let test_analysis_warns_on_dead_rule () =
  let r = Analysis.analyze (Qdl.parse_program pruning_program) in
  check bool_ "still deployable" true r.Analysis.ok;
  let warnings =
    List.filter (fun d -> d.Analysis.severity = Analysis.Warning) r.Analysis.diagnostics
  in
  check bool_ "warns that the rule is statically dead" true
    (List.exists (fun d -> contains d.Analysis.message "statically dead") warnings)

(* ---- conflict footprints ---- *)

let test_footprints () =
  let c =
    compile
      {|create queue a kind basic mode persistent
        create queue b kind basic mode persistent
        create queue c kind basic mode persistent
        create property p as xs:string queue a value //id
        create slicing sl on p
        create rule stat for a if (//x) then do enqueue <y/> into b
        create rule dyn for a
          if (qs:queue(string(//target))//x) then do enqueue <y/> into c
        create rule cut for a if (//z) then do reset slicing sl key "k1"|}
  in
  let plan = Option.get (Compiler.plan_for c "a") in
  (match plan.Compiler.footprints with
   | [ f_stat; f_dyn; f_cut ] ->
     check bool_ "static enqueue -> its queue" true
       ((not f_stat.Compiler.fp_top) && f_stat.Compiler.fp_queues = [ "b" ]);
     check bool_ "dynamic queue name -> top" true f_dyn.Compiler.fp_top;
     check bool_ "literal-key reset -> slice" true
       (f_cut.Compiler.fp_slices = [ ("sl", "k1") ] && f_cut.Compiler.fp_queues = [ "c" ]
       || f_cut.Compiler.fp_slices = [ ("sl", "k1") ])
   | l -> Alcotest.failf "expected three footprints, got %d" (List.length l));
  (match plan.Compiler.conflicts.(0) with
   | reqs, Compiler.Conflict_resources { res; own_queue } ->
     check bool_ "requirements cached" true (reqs = [ "x" ]);
     check bool_ "resource string" true (res = [ "q:b" ]);
     check bool_ "no own-queue read" false own_queue
   | _, Compiler.Conflict_top -> Alcotest.fail "static rule must not be top");
  (match plan.Compiler.conflicts.(1) with
   | _, Compiler.Conflict_top -> ()
   | _ -> Alcotest.fail "dynamic rule must be top");
  check bool_ "union is top" true (plan.Compiler.conflict_union = Compiler.Conflict_top);
  check bool_ "queue resource cached" true (plan.Compiler.queue_resource = "q:a");
  check bool_ "top prints as such" true
    (contains (Compiler.footprint_to_string (List.nth plan.Compiler.footprints 1)) "⊤");
  check bool_ "every queue becomes a resource" true
    (List.sort compare (Compiler.all_queue_resources c) = [ "q:a"; "q:b"; "q:c" ])

(* ---- merged guarded plan == per-rule interpretation (qcheck) ----

   Programs are drawn from pools of conditions and bodies chosen to
   exercise every compiler pass: shared guards, hoistable common
   subexpressions, pre-filterable requirements, guards and bodies that
   raise at runtime (fallback re-evaluation, §3.6 attribution), a guard
   that reads engine state (an error routed by an earlier rule changes
   it), else branches and rule-level error queues.

   Two properties. The engine-level one runs the same message sequence
   through two engines differing only in [S.deploy ~reference]; every queue's
   serialized contents and the error/evaluation counters must agree. The
   plan-level one compares [Plan_ir.eval] with a per-rule interpreter
   that lives here, independent of the plan IR. *)

let conditions =
  [|
    "//a";
    "//b";
    "//a and //b";
    "count(//a) > 0";
    "//nope";
    "1 = 1";
    "1 idiv 0 = 1" (* guard raises: exercises memoized-failure fallback *);
    {|count(qs:queue("errs")) mod 2 = 0|}
    (* reads state that an earlier rule's routed error changes: must not
       be shared *);
  |]

let rule_then i body =
  match body with
  | 0 -> Printf.sprintf "do enqueue <r%d/> into o1" i
  | 1 -> Printf.sprintf "do enqueue <r%d>{string((//a)[1])}</r%d> into o2" i i
  | 2 -> Printf.sprintf "do enqueue <r%d>{1 idiv 0}</r%d> into o1" i i
  | 3 ->
    Printf.sprintf "(do enqueue <r%d/> into o1, do enqueue <r%d/> into o2)" i i
  | _ ->
    (* shared across rules: the hoisting pass must not change results *)
    Printf.sprintf "do enqueue <r%d>{count(//a) + count(//b) + count(//c)}</r%d> into o1"
      i i

let payloads =
  [| "<m><a/></m>"; "<m><b>x</b></m>"; "<m><a>1</a><b/></m>"; "<m><c/></m>"; "<m/>" |]

type gen_rule = { cond : int; body : int; has_else : bool; has_errq : bool }

let program_of rules =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    {|create queue q kind basic mode persistent
create queue o1 kind basic mode persistent
create queue o2 kind basic mode persistent
create queue errs kind basic mode persistent
|};
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf "create rule r%d for q %sif (%s) then %s%s\n" i
           (if r.has_errq then "errorqueue errs " else "")
           conditions.(r.cond mod Array.length conditions)
           (rule_then i (r.body mod 5))
           (if r.has_else then Printf.sprintf " else do enqueue <e%d/> into o2" i
            else "")))
    rules;
  Buffer.contents buf

let observe ~reference program msgs =
  let config = { S.default_config with S.workers = 1 } in
  let srv = S.deploy ~config ~reference program in
  List.iter
    (fun p ->
      match S.inject srv ~queue:"q" (Demaq.xml payloads.(p mod Array.length payloads)) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e))
    msgs;
  ignore (S.run srv);
  let bodies q =
    List.map (fun m -> Demaq.xml_to_string (Message.body m)) (S.queue_contents srv q)
  in
  let st = S.stats srv in
  (* the reference plan never pre-filters: every rule it evaluates is
     either evaluated or skipped by the compiled plan *)
  ( List.map bodies [ "q"; "o1"; "o2"; "errs" ],
    ( st.S.processed,
      st.S.rule_evaluations + st.S.prefilter_skips,
      st.S.errors_raised,
      st.S.messages_created ) )

let gen_case =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 4)
         (map
            (fun (cond, body, (has_else, has_errq)) -> { cond; body; has_else; has_errq })
            (triple (int_range 0 20) (int_range 0 20) (pair bool bool))))
      (list_size (int_range 1 5) (int_range 0 20)))

let print_case (rules, msgs) =
  Printf.sprintf "%s\nmessages: %s" (program_of rules)
    (String.concat ", "
       (List.map (fun p -> payloads.(p mod Array.length payloads)) msgs))

let prop_merged_equivalent =
  QCheck.Test.make ~name:"guarded plan == per-rule interpretation" ~count:40
    ~long_factor:50
    (QCheck.make gen_case ~print:print_case)
    (fun (rules, msgs) ->
      let program = program_of rules in
      observe ~reference:false program msgs = observe ~reference:true program msgs)

(* The per-rule interpreter: every rewritten rule body evaluated in
   declaration order, each on its own. A stub host stands in for the
   engine: the triggering message is the context document, and
   [qs:queue("errs")] holds one node per error routed so far. As in the
   executor, an error is routed at the failing rule's turn to the rule's
   error queue (rules without one drop it), and updates stay pending. *)
type event = string * (string list, string) result

let stub_env payload =
  let doc = Eval.doc_node_of_tree (Demaq.xml payload) in
  let errs = ref [] in
  let host =
    {
      Context.null_host with
      Context.h_message = (fun () -> [ Value.Node doc ]);
      h_queue = (fun q -> if q = Some "errs" then !errs else []);
      h_property = (fun _ -> []);
    }
  in
  let route error_queue =
    if error_queue = Some "errs" then
      errs := !errs @ [ Value.Node (Eval.doc_node_of_tree (Demaq.xml "<error/>")) ]
  in
  ({ (Context.make ~host ()) with Context.item = Some (Value.Node doc) }, route)

let render updates = List.map (Format.asprintf "%a" Update.pp) updates

let per_rule_events (plan : Compiler.plan) payload : event list =
  let env, route = stub_env payload in
  let events = ref [] in
  List.iter
    (fun (cr : Compiler.compiled_rule) ->
      let outcome =
        match Eval.eval_with_updates env cr.Compiler.cr_body with
        | _, updates -> Ok (render updates)
        | exception Context.Eval_error d ->
          route cr.Compiler.cr_error_queue;
          Error d
      in
      events := (cr.Compiler.cr_name, outcome) :: !events)
    plan.Compiler.rules;
  List.rev !events

let plan_events (plan : Compiler.plan) payload : event list =
  let env, route = stub_env payload in
  let events = ref [] in
  Plan_ir.eval
    ~admitted:(fun _ _ -> true)
    ~before:ignore
    ~emit:(fun g outcome ->
      let outcome =
        match outcome with
        | Plan_ir.Updates updates -> Ok (render updates)
        | Plan_ir.Failed d ->
          route g.Plan_ir.g_error_queue;
          Error d
      in
      events := (g.Plan_ir.g_name, outcome) :: !events)
    env plan.Compiler.exec;
  List.rev !events

let plan_matches_oracle program msgs =
  let plan = Option.get (Compiler.plan_for (compile program) "q") in
  List.for_all
    (fun p ->
      let payload = payloads.(p mod Array.length payloads) in
      plan_events plan payload = per_rule_events plan payload)
    msgs

let prop_plan_matches_interpreter =
  QCheck.Test.make ~name:"Plan_ir.eval == per-rule interpreter" ~count:1000
    ~long_factor:10
    (QCheck.make gen_case ~print:print_case)
    (fun (rules, msgs) -> plan_matches_oracle (program_of rules) msgs)

(* Pinned: two rules share a state-reading guard with an error-raising
   rule between them. Per-rule, the second guard sees the routed error
   and does not fire; sharing the first evaluation would fire it. *)
let shared_state_guard_program =
  {|create queue q kind basic mode persistent
create queue o1 kind basic mode persistent
create queue o2 kind basic mode persistent
create queue errs kind basic mode persistent
create rule before for q if (count(qs:queue("errs")) mod 2 = 0) then do enqueue <before/> into o1
create rule boom for q errorqueue errs if (//a) then do enqueue <x>{1 idiv 0}</x> into o2
create rule after for q if (count(qs:queue("errs")) mod 2 = 0) then do enqueue <after/> into o1
|}

let test_state_reading_guard_not_shared () =
  check bool_ "plan = per-rule interpreter" true
    (plan_matches_oracle shared_state_guard_program [ 0 ]);
  let queues, _ = observe ~reference:false shared_state_guard_program [ 0 ] in
  check bool_ "only the first guard held" true
    (List.nth queues 1 = [ "<before/>" ]);
  check int_ "one routed error" 1 (List.length (List.nth queues 3));
  check bool_ "engine: compiled = reference" true
    (observe ~reference:false shared_state_guard_program [ 0 ]
    = observe ~reference:true shared_state_guard_program [ 0 ])

(* A rule binds a variable named like a plan binding. Plan bindings are
   slots, not names, so the plan is still hoisted, and the rule's own
   variable keeps its value. *)
let own_plan_name_program =
  {|create queue q kind basic mode persistent
create queue o1 kind basic mode persistent
create queue o2 kind basic mode persistent
create queue errs kind basic mode persistent
create rule mine for q if (//a) then do enqueue <r0>{count(//a) + count(//b)}{for $__plan0 in //a return concat("x", string($__plan0))}{let $__plan1 := 7 return $__plan1}</r0> into o1
create rule other for q if (//a) then do enqueue <r1>{count(//a) + count(//b)}</r1> into o2
|}

let test_own_plan_name_hoisted () =
  let c = compile own_plan_name_program in
  let exec = (Option.get (Compiler.plan_for c "q")).Compiler.exec in
  check bool_ "bindings hoisted" true (Plan_ir.bindings exec <> []);
  check bool_ "explain lists them" true (contains (Compiler.explain c) "binding $#plan0 :=");
  check bool_ "explain keeps the rule's own $__plan0 apart" true
    (contains (Compiler.explain c) "for $__plan0 in");
  check bool_ "plan = per-rule interpreter" true
    (plan_matches_oracle own_plan_name_program [ 0; 1; 2; 3; 4 ]);
  let queues, _ = observe ~reference:false own_plan_name_program [ 2 ] in
  check bool_ "the rule's own variables" true (List.nth queues 1 = [ "<r0>2x17</r0>" ]);
  check bool_ "engine: compiled = reference" true
    (observe ~reference:false own_plan_name_program [ 0; 1; 2; 3; 4 ]
    = observe ~reference:true own_plan_name_program [ 0; 1; 2; 3; 4 ])

(* ---- footprint-driven dispatch: pinned end-to-end regression ---- *)

let fanout_program =
  {|create queue inq kind basic mode persistent
    create queue o1 kind basic mode persistent
    create queue o2 kind basic mode persistent
    create rule ra for inq if (//a) then do enqueue <ya/> into o1
    create rule rb for inq if (//b) then do enqueue <yb/> into o2|}

let run_fanout ~footprint ~workers =
  let config =
    {
      S.default_config with
      S.footprint_dispatch = footprint;
      S.workers = workers;
    }
  in
  let srv = S.deploy ~config fanout_program in
  List.iter
    (fun p -> ignore (S.inject srv ~queue:"inq" (Demaq.xml p)))
    [ "<m><a/></m>"; "<m><b/></m>"; "<m><a/></m>"; "<m><b/></m>" ];
  ignore (S.run srv);
  let bodies q =
    List.map (fun m -> Demaq.xml_to_string (Message.body m)) (S.queue_contents srv q)
  in
  (bodies "o1", bodies "o2", (S.stats srv).S.errors_raised)

let test_footprint_dispatch_end_to_end () =
  (* same outputs with and without footprint partitioning; under
     footprint dispatch messages admitted by disjoint-resource rules may
     reorder across, but never within, a resource *)
  let base = run_fanout ~footprint:false ~workers:1 in
  let fp = run_fanout ~footprint:true ~workers:1 in
  check bool_ "single worker: identical" true (base = fp);
  let o1, o2, errors = run_fanout ~footprint:true ~workers:2 in
  check bool_ "o1 order preserved" true (o1 = [ "<ya/>"; "<ya/>" ]);
  check bool_ "o2 order preserved" true (o2 = [ "<yb/>"; "<yb/>" ]);
  check int_ "no errors" 0 errors

let suite =
  [
    ("guard sharing and CSE hoisting", `Quick, test_guard_sharing_and_cse);
    ("unstable guards are not shared", `Quick, test_unstable_guard_not_shared);
    ("unsatisfiable rules pruned", `Quick, test_pruning);
    ("pruned rule never runs", `Quick, test_pruned_rule_never_runs);
    ("open vocabulary disables pruning", `Quick, test_no_pruning_under_open_vocabulary);
    ("analysis warns on dead rules", `Quick, test_analysis_warns_on_dead_rule);
    ("conflict footprints", `Quick, test_footprints);
    QCheck_alcotest.to_alcotest prop_merged_equivalent;
    QCheck_alcotest.to_alcotest prop_plan_matches_interpreter;
    ("state-reading guards are not shared", `Quick, test_state_reading_guard_not_shared);
    ("a rule's own $__plan variable does not block hoisting", `Quick, test_own_plan_name_hoisted);
    ("footprint dispatch end to end", `Quick, test_footprint_dispatch_end_to_end);
  ]
