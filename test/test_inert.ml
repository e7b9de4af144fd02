(* Inert messages: a message no rule can react to (a basic or incoming
   gateway queue with no compiled plan and no slice membership with one)
   is processed by the transaction that creates it instead of a dispatch
   of its own. The tests pin what that must not change: recovery, torn
   logs, echo timers, gateway transmission, slice rules, aborts and the
   retention GC. *)

module Store = Demaq.Store.Message_store
module Wal = Demaq.Store.Wal
module Message = Demaq.Message
module Net = Demaq.Network
module S = Demaq.Server
module Fault = Demaq.Engine.Fault
module Trace = Demaq.Obs.Trace

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-inert-%s-%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let inject_ok srv queue payload =
  match S.inject srv ~queue (Demaq.xml payload) with
  | Ok m -> m
  | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e)

let children = [ "billing"; "inventory"; "shipping"; "notifications"; "audit" ]

(* One root queue whose rule set fans every order out to five queues that
   no rule reads: the shape of examples/order_fanout.demaq. *)
let fanout_program =
  String.concat "\n"
    ("create queue orders kind basic mode persistent"
    :: List.concat_map
         (fun q ->
           [
             Printf.sprintf "create queue %s kind basic mode persistent" q;
             Printf.sprintf
               "create rule to_%s for orders if (//order) then do enqueue <%s>{string(//order/id)}</%s> into %s"
               q q q q;
           ])
         children)

let stored_processed st rid =
  match Store.get st rid with
  | Some m -> m.Store.processed
  | None -> Alcotest.failf "rid %d missing" rid

let child_rids srv =
  List.concat_map
    (fun q -> List.map (fun (m : Message.t) -> m.Message.rid) (S.queue_contents srv q))
    children

(* The root's commit carries its five children, already processed:
   reopening the store finds nothing to reschedule. *)
let test_replay_after_root_commit () =
  let dir = fresh_dir "replay" in
  let cfg = Store.durable_config ~sync:Wal.Sync_always dir in
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st fanout_program in
  let root = inject_ok srv "orders" "<order><id>7</id></order>" in
  check int_ "one dispatched transaction, six messages" 6 (S.run ~max_steps:1 srv);
  check int_ "nothing left to dispatch" 0 (S.pending_messages srv);
  let st2 = Fault.crash_restart cfg st in
  let srv2 = S.deploy ~store:st2 fanout_program in
  check bool_ "root processed" true (stored_processed st2 root.Message.rid);
  let kids = child_rids srv2 in
  check int_ "five children replayed" 5 (List.length kids);
  check bool_ "children processed" true (List.for_all (stored_processed st2) kids);
  check int_ "none rescheduled" 0 (S.pending_messages srv2);
  check int_ "idle after recovery" 0 (S.run srv2);
  Store.close st2

(* A torn tail that loses the root's processing commit loses its
   children with it: they were inserted by that very record. *)
let test_torn_tail_drops_children () =
  let dir = fresh_dir "torn" in
  let cfg = Store.durable_config ~sync:Wal.Sync_always dir in
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st fanout_program in
  let root = inject_ok srv "orders" "<order><id>8</id></order>" in
  ignore (S.run srv);
  let st2 = Fault.crash_restart ~tear_bytes:1 cfg st in
  let srv2 = S.deploy ~store:st2 fanout_program in
  check bool_ "root survives, unprocessed" false (stored_processed st2 root.Message.rid);
  check int_ "no child exists" 0 (List.length (child_rids srv2));
  check int_ "root rescheduled" 1 (S.pending_messages srv2);
  check int_ "reprocessed once" 6 (S.run srv2);
  List.iter
    (fun q -> check int_ (q ^ " holds one message") 1 (List.length (S.queue_contents srv2 q)))
    children;
  Store.close st2

let echo_program = {|
create queue in kind basic mode persistent
create queue timers kind echo mode persistent
create queue done kind basic mode persistent
create rule arm for in
  if (//ping) then
    do enqueue <wake/> into timers
      with timeout value 5
      with target value "done"
|}

(* An echo message keeps its own path: unprocessed until its timer
   fires, so a restart can re-arm it. *)
let test_echo_child_waits_for_timer () =
  let srv = S.deploy echo_program in
  ignore (inject_ok srv "in" "<ping/>");
  ignore (S.run srv);
  let echo () =
    match S.queue_contents srv "timers" with
    | [ m ] -> m
    | l -> Alcotest.failf "%d echo messages" (List.length l)
  in
  check bool_ "echo child unprocessed" false (echo ()).Message.processed;
  check int_ "timer armed" 1 (S.timers_pending srv);
  S.advance_time srv 2;
  ignore (S.run srv);
  check bool_ "still waiting before its timeout" false (echo ()).Message.processed;
  S.advance_time srv 10;
  ignore (S.run srv);
  check bool_ "processed once the timer fired" true (echo ()).Message.processed;
  match S.queue_contents srv "done" with
  | [ m ] -> check bool_ "echoed message processed" true m.Message.processed
  | l -> Alcotest.failf "%d echoed messages" (List.length l)

let gateway_program = {|
create queue out kind outgoingGateway mode persistent
create queue work kind basic mode persistent
create rule send for work
  if (//order) then do enqueue <request>{string(//order/id)}</request> into out
|}

(* Outgoing-gateway children are transmitted, once each. *)
let test_gateway_children_transmitted_once () =
  let net = Net.create () in
  let received = ref [] in
  Net.register net ~name:"partner" ~handler:(fun ~sender:_ body ->
      received := Demaq.xml_to_string body :: !received;
      []);
  let srv = S.deploy ~network:net gateway_program in
  S.bind_gateway srv ~queue:"out" ~endpoint:"partner" ();
  for i = 1 to 3 do
    ignore (inject_ok srv "work" (Printf.sprintf "<order><id>%d</id></order>" i))
  done;
  ignore (S.run srv);
  ignore (S.run srv);
  check bool_ "each request delivered exactly once" true
    (List.sort compare !received
    = [ "<request>1</request>"; "<request>2</request>"; "<request>3</request>" ]);
  check int_ "three transmissions" 3 (S.stats srv).S.transmissions

let slice_program = {|
create queue in kind basic mode persistent
create queue parts kind basic mode persistent
create queue out kind basic mode persistent
create property key as xs:string fixed
  queue parts value //k
create slicing bykey on key
create rule split for in
  if (//ping) then do enqueue <part><k>a</k></part> into parts
create rule seen for bykey
  if (qs:slice()[/part]) then do enqueue <seen>{string(qs:slicekey())}</seen> into out
|}

(* A queue with no rule of its own whose messages join a slicing that has
   one is not inert: the slice rule must still run for them. *)
let test_slice_plan_not_inert () =
  let srv = S.deploy slice_program in
  ignore (inject_ok srv "in" "<ping/>");
  ignore (S.step srv);
  check int_ "slice member scheduled, not processed inline" 1 (S.pending_messages srv);
  ignore (S.run srv);
  match S.queue_contents srv "out" with
  | [ m ] ->
    check Alcotest.string "slice rule fired" "<seen>a</seen>"
      (Demaq.xml_to_string (Message.body m))
  | l -> Alcotest.failf "%d messages in out" (List.length l)

let abort_program = {|
create queue in kind basic mode persistent
create queue errs kind basic mode persistent
create rule bad for in errorqueue errs
  if (//ping) then do enqueue <x>{1 idiv 0}</x> into errs
create rule second for in
  if (//ping) then do enqueue <y/> into errs
|}

(* The first rule's evaluation error is routed into [errs], a queue no
   rule reads, inside the message's transaction; the injected failure of
   the second evaluation then aborts that transaction. The routed error
   message goes with it, and so must its count and span. *)
let test_abort_leaves_no_inline_count () =
  let config = { S.default_config with S.trace_capacity = 16 } in
  let srv = S.deploy ~config abort_program in
  let f = Fault.create () in
  Fault.fail_on_eval f 2;
  S.set_fault srv (Some f);
  let root = inject_ok srv "in" "<ping/>" in
  ignore (S.run srv);
  check int_ "the fault fired" 1 (Fault.injected f);
  check int_ "aborted error message gone" 0 (List.length (S.queue_contents srv "errs"));
  check int_ "only the root processed" 1 (S.stats srv).S.processed;
  match S.spans srv with
  | [ sp ] ->
    check int_ "the root's span" root.Message.rid sp.Trace.sp_rid;
    check bool_ "aborted" true
      (match sp.Trace.sp_outcome with Trace.Aborted _ -> true | Trace.Committed -> false)
  | l -> Alcotest.failf "%d spans" (List.length l)

(* ---- what an inert message leaves behind: its store record ---- *)

module Qm = Demaq.Mq.Queue_manager

let message_cache srv = List.assoc "message" (S.cache_sizes srv)

(* Only the dispatched roots are cached; their five inert children are
   not (a cache of every created message would hold 6N). *)
let test_cache_holds_roots_only () =
  let srv = S.deploy fanout_program in
  let n = 10 in
  for i = 1 to n do
    ignore (inject_ok srv "orders" (Printf.sprintf "<order><id>%d</id></order>" i))
  done;
  check int_ "drained" (6 * n) (S.run srv);
  check int_ "every message stored" (6 * n)
    (Store.stats (S.store srv)).Store.live_messages;
  let cached = message_cache srv in
  check bool_ (Printf.sprintf "%d cached <= %d roots" cached n) true (cached <= n)

let unplanned_slice_program = {|
create queue in kind basic mode persistent
create queue parts kind basic mode persistent
create property key as xs:string fixed
  queue parts value //k
create slicing bykey on key
create rule split for in
  if (//ping) then (do enqueue <part><k>a</k></part> into parts,
                    do enqueue <part><k>b</k></part> into parts)
|}

(* [parts] joins a slicing no rule reads, so its messages are inert and
   never cached. When the transaction that inserted one aborts, its
   slice-index posting must still go: the undo names it from the
   memberships admission computed, not from a cache entry. *)
let test_abort_drops_uncached_postings () =
  let srv = S.deploy unplanned_slice_program in
  let qm = S.queue_manager srv in
  let f = Fault.create () in
  Fault.fail_on_apply f 2;
  S.set_fault srv (Some f);
  let root = inject_ok srv "in" "<ping/>" in
  ignore (S.run srv);
  check int_ "the fault fired" 1 (Fault.injected f);
  check int_ "no part survives" 0 (Store.queue_length (S.store srv) "parts");
  check (Alcotest.list Alcotest.string) "no slice-index posting" []
    (Qm.slice_keys qm ~slicing:"bykey");
  check int_ "only the root is cached" 1 (Qm.cache_size qm);
  check bool_ "and it is the root" true (Qm.get qm root.Message.rid <> None)

let kept_program = unplanned_slice_program ^ {|
create queue log kind basic mode persistent
create rule note for in
  if (//ping) then do enqueue <seen/> into log
|}

(* After a restart every message is processed and none is cached. The
   maintenance tick's GC judges each from its store record: it collects
   the roots and their [log] children, keeps the parts (their slice was
   never reset), and builds a record for none of them. *)
let test_maintain_collects_uncached () =
  let dir = fresh_dir "maintain" in
  let cfg = Store.durable_config ~sync:Wal.Sync_always dir in
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st kept_program in
  for _ = 1 to 4 do
    ignore (inject_ok srv "in" "<ping/>")
  done;
  check int_ "drained" 16 (S.run srv);
  let st2 = Fault.crash_restart cfg st in
  let srv2 = S.deploy ~store:st2 kept_program in
  check int_ "recovery cached nothing" 0 (message_cache srv2);
  let collected = ref 0 in
  for _ = 1 to 8 do
    collected := !collected + fst (S.maintain ~gc_budget:5 srv2);
    check int_ "the tick cached nothing" 0 (message_cache srv2)
  done;
  check int_ "roots and logs collected" 8 !collected;
  check int_ "the parts stay" 8 (Store.stats st2).Store.live_messages;
  Store.close st2

let reread_program = {|
create queue orders kind basic mode persistent
create queue billing kind basic mode persistent
create queue probe kind basic mode persistent
create queue out kind basic mode persistent
create rule bill for orders
  if (//order) then do enqueue <invoice>{string(//order/id)}</invoice> into billing
create rule look for probe
  if (//go) then
    do enqueue <same>{count(qs:queue("billing") intersect qs:queue("billing"))}</same> into out
|}

(* Billing's messages are inert and were never cached: the first
   qs:queue() call builds them from the store, and the second must see
   the very same nodes. *)
let test_queue_reads_share_nodes () =
  let srv = S.deploy reread_program in
  for i = 1 to 3 do
    ignore (inject_ok srv "orders" (Printf.sprintf "<order><id>%d</id></order>" i))
  done;
  ignore (S.run srv);
  let before = message_cache srv in
  ignore (inject_ok srv "probe" "<go/>");
  ignore (S.run srv);
  let after = message_cache srv in
  (match S.queue_contents srv "out" with
   | [ m ] ->
     check Alcotest.string "one node set" "<same>3</same>"
       (Demaq.xml_to_string (Message.body m))
   | l -> Alcotest.failf "%d messages in out" (List.length l));
  check int_ "the probe and billing's three cached" (before + 4) after

(* Inert messages admitted by [inject] and [inject_batch] are processed
   by the injecting caller: nothing is left to dispatch. *)
let test_ingress_processes_inert () =
  let srv = S.deploy "create queue sink kind basic mode persistent" in
  ignore (inject_ok srv "sink" "<a/>");
  ignore (S.inject_batch srv ~queue:"sink" [ Demaq.xml "<b/>"; Demaq.xml "<c/>" ]);
  check int_ "nothing was dispatched" 0 (S.run srv);
  check int_ "processed by ingress" 3 (S.stats srv).S.processed

let suite =
  [
    ("replay after the root's commit", `Quick, test_replay_after_root_commit);
    ("torn tail drops the children", `Quick, test_torn_tail_drops_children);
    ("echo child waits for its timer", `Quick, test_echo_child_waits_for_timer);
    ("gateway children transmitted once", `Quick, test_gateway_children_transmitted_once);
    ("slice plan makes a queue not inert", `Quick, test_slice_plan_not_inert);
    ("aborted creator leaves no count or span", `Quick, test_abort_leaves_no_inline_count);
    ("cache holds the dispatched roots only", `Quick, test_cache_holds_roots_only);
    ("abort drops an uncached message's postings", `Quick,
     test_abort_drops_uncached_postings);
    ("maintain collects uncached messages", `Quick, test_maintain_collects_uncached);
    ("qs:queue reads share nodes", `Quick, test_queue_reads_share_nodes);
    ("ingress processes inert messages", `Quick, test_ingress_processes_inert);
  ]
