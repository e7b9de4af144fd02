(* Tests for dynamic queue and rule evolution (paper §5 future work) and
   multi-node distribution via gateway pairs (§2.1.2). *)

module Tree = Demaq.Xml.Tree
module Value = Demaq.Value
module Message = Demaq.Message
module Net = Demaq.Network
module S = Demaq.Server

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let xml = Demaq.xml

let bodies srv q =
  List.map (fun m -> Demaq.xml_to_string (Message.body m)) (S.queue_contents srv q)

let inject_ok srv queue payload =
  match S.inject srv ~queue (xml payload) with
  | Ok m -> m
  | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e)

let evolve_ok srv src =
  match S.evolve srv src with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "evolve failed: %s" msg

let base_program = {|
  create queue in kind basic mode persistent
  create queue out kind basic mode persistent
  create rule fwd for in
    if (//m) then do enqueue <fwd>{string(//m)}</fwd> into out
|}

(* ---- adding rules at runtime ---- *)

let test_add_rule () =
  let srv = S.deploy base_program in
  ignore (inject_ok srv "in" "<m>1</m>");
  ignore (S.run srv);
  check int_ "one output before evolution" 1 (List.length (bodies srv "out"));
  evolve_ok srv
    {|create rule audit for in
        if (//m) then do enqueue <audited>{string(//m)}</audited> into out|};
  ignore (inject_ok srv "in" "<m>2</m>");
  ignore (S.run srv);
  let out = bodies srv "out" in
  (* the new rule applies to new messages only going forward; the first
     message was already processed *)
  check bool_ "both rules fired for message 2" true
    (List.mem "<fwd>2</fwd>" out && List.mem "<audited>2</audited>" out);
  check bool_ "message 1 not retroactively audited" true
    (not (List.mem "<audited>1</audited>" out))

let test_add_rule_applies_to_pending () =
  (* a message enqueued but not yet processed gets the new rule *)
  let srv = S.deploy base_program in
  ignore (inject_ok srv "in" "<m>late</m>");
  evolve_ok srv
    {|create rule audit for in
        if (//m) then do enqueue <audited>{string(//m)}</audited> into out|};
  ignore (S.run srv);
  check bool_ "pending message saw the new rule" true
    (List.mem "<audited>late</audited>" (bodies srv "out"))

(* ---- dropping rules ---- *)

let test_drop_rule () =
  let srv = S.deploy base_program in
  evolve_ok srv "drop rule fwd";
  ignore (inject_ok srv "in" "<m>x</m>");
  ignore (S.run srv);
  check int_ "no output after drop" 0 (List.length (bodies srv "out"))

let test_drop_unknown_rule () =
  let srv = S.deploy base_program in
  match S.evolve srv "drop rule ghost" with
  | Error msg ->
    check bool_ "names the rule" true
      (let n = String.length "ghost" in
       let rec go i =
         i + n <= String.length msg && (String.sub msg i n = "ghost" || go (i + 1))
       in
       go 0)
  | Ok () -> Alcotest.fail "expected error"

let test_replace_rule () =
  (* drop + create in one script = hot rule replacement *)
  let srv = S.deploy base_program in
  evolve_ok srv
    {|drop rule fwd
      create rule fwd for in
        if (//m) then do enqueue <v2>{string(//m)}</v2> into out|};
  ignore (inject_ok srv "in" "<m>z</m>");
  ignore (S.run srv);
  check bool_ "new body in effect" true (bodies srv "out" = [ "<v2>z</v2>" ])

(* ---- adding infrastructure at runtime ---- *)

let test_add_queue_and_rule () =
  let srv = S.deploy base_program in
  evolve_ok srv
    {|create queue archive kind basic mode persistent
      create rule toArchive for out
        if (//fwd) then do enqueue <kept/> into archive|};
  ignore (inject_ok srv "in" "<m>a</m>");
  ignore (S.run srv);
  check bool_ "cascade through the new queue" true (bodies srv "archive" = [ "<kept/>" ])

let test_add_slicing_affects_future_only () =
  let srv = S.deploy base_program in
  ignore (inject_ok srv "in" "<m><k>old</k></m>");
  ignore (S.run srv);
  evolve_ok srv
    {|create property k as xs:string fixed queue in value //k
      create slicing byK on k
      create rule onSlice for byK
        if (qs:message()//m) then
          do enqueue <seen>{string(qs:slicekey())}</seen> into out|};
  ignore (inject_ok srv "in" "<m><k>new</k></m>");
  ignore (S.run srv);
  let out = bodies srv "out" in
  check bool_ "new message in new slicing" true (List.mem "<seen>new</seen>" out);
  (* the old message predates the slicing: no membership, no slice rule *)
  check bool_ "old message untouched" true (not (List.mem "<seen>old</seen>" out))

(* ---- rejected evolutions ---- *)

let test_evolution_rejected_keeps_old_rules () =
  let srv = S.deploy base_program in
  (match S.evolve srv
           {|create rule bad for nowhere if (//x) then do enqueue <y/> into out|}
   with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "expected rejection");
  (* the running rule set is untouched *)
  ignore (inject_ok srv "in" "<m>still</m>");
  ignore (S.run srv);
  check bool_ "old rule still active" true (bodies srv "out" = [ "<fwd>still</fwd>" ])

let test_evolution_duplicate_rejected () =
  let srv = S.deploy base_program in
  match S.evolve srv "create queue in kind basic mode persistent" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected duplicate-queue rejection"

let test_drop_in_initial_program_rejected () =
  match S.deploy "drop rule x" with
  | _ -> Alcotest.fail "expected deployment error"
  | exception S.Deployment_error _ -> ()

(* ---- distribution: two nodes connected by gateway pairs (§2.1.2) ---- *)

let node_a_program = {|
  create queue work kind basic mode persistent
  create queue toB kind outgoingGateway mode persistent
  create queue fromB kind incomingGateway mode persistent
  create queue results kind basic mode persistent
  create rule dispatch for work
    if (//job) then do enqueue <task>{string(//job/id)}</task> into toB
  create rule collect for fromB
    if (//taskDone) then do enqueue <result>{string(//taskDone)}</result> into results
|}

let node_b_program = {|
  create queue inbox kind incomingGateway mode persistent
  create queue toA kind outgoingGateway mode persistent
  create rule work for inbox
    if (//task) then do enqueue <taskDone>{concat(string(//task), "-done")}</taskDone> into toA
|}

let test_two_nodes () =
  let net = Net.create () in
  let node_a = S.deploy ~network:net node_a_program in
  let node_b = S.deploy ~network:net node_b_program in
  (* wire the gateway pairs: A.toB -> B.inbox, B.toA -> A.fromB *)
  (match S.expose node_b ~name:"nodeB" ~queue:"inbox" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (match S.expose node_a ~name:"nodeA" ~queue:"fromB" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  S.bind_gateway node_a ~queue:"toB" ~endpoint:"nodeB" ();
  S.bind_gateway node_b ~queue:"toA" ~endpoint:"nodeA" ();
  ignore
    (match S.inject node_a ~queue:"work" (xml "<job><id>j1</id></job>") with
     | Ok m -> m
     | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e));
  (* run both nodes to quiescence *)
  let rec settle rounds =
    if rounds > 0 then begin
      let a = S.run node_a in
      let b = S.run node_b in
      if a + b > 0 then settle (rounds - 1)
    end
  in
  settle 10;
  check bool_ "result returned to node A" true
    (bodies node_a "results" = [ "<result>j1-done</result>" ]);
  (* the remote sender address was recorded on B's inbox message *)
  let received = List.hd (S.queue_contents node_b "inbox") in
  check bool_ "sender recorded" true
    (Message.property received Demaq.Mq.Defs.Sysprop.sender <> None)

let test_expose_validations () =
  let srv = S.deploy base_program in
  (match S.expose srv ~name:"x" ~queue:"in" with
   | Error msg ->
     check bool_ "kind checked" true
       (let sub = "not an incoming gateway" in
        let n = String.length sub in
        let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
        go 0)
   | Ok () -> Alcotest.fail "expected kind error");
  match S.expose srv ~name:"x" ~queue:"ghost" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected unknown-queue error"

let test_distributed_pipeline_three_nodes () =
  (* a chain: source -> transform -> sink across three servers *)
  let net = Net.create () in
  let source =
    S.deploy ~network:net
      {|create queue start kind basic mode persistent
        create queue outHop kind outgoingGateway mode persistent
        create rule go for start
          if (//n) then do enqueue <v>{number(//n) * 2}</v> into outHop|}
  in
  let transform =
    S.deploy ~network:net
      {|create queue hopIn kind incomingGateway mode persistent
        create queue outHop kind outgoingGateway mode persistent
        create rule double for hopIn
          if (//v) then do enqueue <v>{number(//v) + 1}</v> into outHop|}
  in
  let sink =
    S.deploy ~network:net
      {|create queue final kind incomingGateway mode persistent|}
  in
  (match S.expose transform ~name:"transform" ~queue:"hopIn" with Ok () -> () | Error e -> Alcotest.fail e);
  (match S.expose sink ~name:"sink" ~queue:"final" with Ok () -> () | Error e -> Alcotest.fail e);
  S.bind_gateway source ~queue:"outHop" ~endpoint:"transform" ();
  S.bind_gateway transform ~queue:"outHop" ~endpoint:"sink" ();
  ignore
    (match S.inject source ~queue:"start" (xml "<n>20</n>") with
     | Ok m -> m
     | Error e -> Alcotest.failf "%s" (Demaq.Mq.Queue_manager.error_to_string e));
  let rec settle rounds =
    if rounds > 0 then
      let n = S.run source + S.run transform + S.run sink in
      if n > 0 then settle (rounds - 1)
  in
  settle 10;
  check bool_ "value flowed through both hops" true
    (bodies sink "final" = [ "<v>41</v>" ])

(* A node deployed in the reference plan shape is recompiled in it: the
   evolved rule's condition is evaluated, never pre-filtered away. *)
let test_evolve_keeps_reference () =
  let skips ~reference =
    let srv = S.deploy ~reference base_program in
    evolve_ok srv
      {|create rule other for in if (//zzz) then do enqueue <z/> into out|};
    ignore (inject_ok srv "in" "<m>1</m>");
    ignore (S.run srv);
    check int_ "one output" 1 (List.length (bodies srv "out"));
    (S.stats srv).S.prefilter_skips
  in
  check int_ "the optimized plan pre-filters" 1 (skips ~reference:false);
  check int_ "the reference plan does not" 0 (skips ~reference:true)

let suite =
  [
    ("add a rule at runtime (§5)", `Quick, test_add_rule);
    ("new rule sees pending messages", `Quick, test_add_rule_applies_to_pending);
    ("drop a rule", `Quick, test_drop_rule);
    ("drop unknown rule", `Quick, test_drop_unknown_rule);
    ("hot rule replacement", `Quick, test_replace_rule);
    ("add queue + rule at runtime", `Quick, test_add_queue_and_rule);
    ("new slicing affects future messages only", `Quick, test_add_slicing_affects_future_only);
    ("rejected evolution keeps old rules", `Quick, test_evolution_rejected_keeps_old_rules);
    ("duplicate definitions rejected", `Quick, test_evolution_duplicate_rejected);
    ("drop in initial program rejected", `Quick, test_drop_in_initial_program_rejected);
    ("two nodes via gateway pairs (§2.1.2)", `Quick, test_two_nodes);
    ("expose validations", `Quick, test_expose_validations);
    ("three-node pipeline", `Quick, test_distributed_pipeline_three_nodes);
    ("evolution keeps the reference plan shape", `Quick, test_evolve_keeps_reference);
  ]
