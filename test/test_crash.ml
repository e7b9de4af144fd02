(* Crash-safety tests: seeded fault injection (Fault) driven through the
   engine. The contract under test is the one §3.1/§3.6 imply together:
   whatever goes wrong while a message is processed — evaluator exceptions,
   failures while pending updates are applied, torn WAL tails, abrupt
   restarts, partitioned endpoints — the transaction aborts cleanly, all
   locks are released, the failure becomes an error message, and the engine
   keeps running. *)

module Tree = Demaq.Xml.Tree
module Store = Demaq.Store.Message_store
module Wal = Demaq.Store.Wal
module Lock = Demaq.Store.Lock_manager
module Message = Demaq.Message
module Net = Demaq.Network
module S = Demaq.Server
module Fault = Demaq.Engine.Fault
module Clock = Demaq.Engine.Clock
module Value = Demaq.Value
module Sysprop = Demaq.Mq.Defs.Sysprop

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let xml = Demaq.xml

let bodies srv q =
  List.map (fun m -> Demaq.xml_to_string (Message.body m)) (S.queue_contents srv q)

let inject_ok ?props srv queue payload =
  match S.inject srv ?props ~queue (xml payload) with
  | Ok m -> m
  | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e)

let active_locks srv = Lock.active_locks (Store.locks (S.store srv))

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-crash-%s-%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

(* ---- evaluator exceptions ---- *)

let ping_pong = {|
create queue in kind basic mode persistent
create queue out kind basic mode persistent
create queue errs kind basic mode persistent
create rule pong for in errorqueue errs
  if (//ping) then do enqueue <pong>{string(//ping)}</pong> into out
|}

let test_eval_fault_aborts () =
  (* An arbitrary (non-Eval_error) exception during rule evaluation must
     abort the transaction, release every lock, surface as an evaluation
     error message, and leave the engine able to process the next
     message. *)
  let srv = S.deploy ping_pong in
  let f = Fault.create () in
  Fault.fail_on_eval f 1;
  S.set_fault srv (Some f);
  ignore (inject_ok srv "in" "<ping>doomed</ping>");
  ignore (inject_ok srv "in" "<ping>fine</ping>");
  ignore (S.run srv);
  check int_ "fault fired once" 1 (Fault.injected f);
  check bool_ "transaction aborted" true ((S.stats srv).S.txn_aborts >= 1);
  check int_ "lock table empty" 0 (active_locks srv);
  check int_ "failure became an error message" 1 (List.length (bodies srv "errs"));
  (* the faulted message produced nothing; the next one went through *)
  check bool_ "engine kept running" true (bodies srv "out" = [ "<pong>fine</pong>" ]);
  check int_ "idle afterwards" 0 (S.run srv)

let two_rules = {|
create queue in kind basic mode persistent
create queue out kind basic mode persistent
create queue errs kind basic mode persistent
create rule first for in errorqueue errs
  if (//ping) then do enqueue <a/> into out
create rule second for in errorqueue errs
  if (//ping) then do enqueue <b/> into out
|}

let test_apply_fault_rolls_back () =
  (* Both rules evaluate against the snapshot, then both pending updates
     apply in the same transaction. Failing the second application must
     also undo the first — no partially applied update list survives. *)
  let srv = S.deploy two_rules in
  let f = Fault.create () in
  Fault.fail_on_apply f 2;
  S.set_fault srv (Some f);
  ignore (inject_ok srv "in" "<ping/>");
  ignore (S.run srv);
  check int_ "fault fired" 1 (Fault.injected f);
  check int_ "first enqueue rolled back with the second" 0
    (List.length (bodies srv "out"));
  check int_ "error routed" 1 (List.length (bodies srv "errs"));
  check int_ "lock table empty" 0 (active_locks srv);
  (* disarmed, the same input processes normally *)
  Fault.disarm f;
  ignore (inject_ok srv "in" "<ping/>");
  ignore (S.run srv);
  check int_ "both updates applied after disarm" 2 (List.length (bodies srv "out"))

let test_flaky_evaluator_drains () =
  (* Random evaluator failures under load: every abort routes an error and
     nothing wedges — the agenda still drains and the lock table ends
     empty. *)
  let srv = S.deploy ping_pong in
  let f = Fault.create ~seed:7 () in
  Fault.set_eval_failure_rate f 0.3;
  S.set_fault srv (Some f);
  for i = 1 to 40 do
    ignore (inject_ok srv "in" (Printf.sprintf "<ping>%d</ping>" i))
  done;
  ignore (S.run srv);
  check bool_ "some faults actually fired" true (Fault.injected f >= 1);
  check int_ "aborts match injected faults" (Fault.injected f)
    (S.stats srv).S.txn_aborts;
  check int_ "every abort routed an error" (Fault.injected f)
    (List.length (bodies srv "errs"));
  check int_ "survivors all produced output" (40 - Fault.injected f)
    (List.length (bodies srv "out"));
  check int_ "lock table empty" 0 (active_locks srv);
  check int_ "agenda drained" 0 (S.pending_messages srv)

(* ---- transmission retry and dead-lettering ---- *)

let gateway_program = {|
create queue out kind outgoingGateway mode persistent
  using WS-ReliableMessaging policy pol.xml
create queue errs kind basic mode persistent
create queue work kind basic mode persistent
create rule send for work errorqueue errs
  if (//order) then do enqueue <request>{string(//order/id)}</request> into out
|}

let test_retry_after_reconnect () =
  (* A partitioned endpoint that comes back: the failed transmission is
     re-armed through the timer wheel and delivered after reconnection —
     exactly once, with no error message. *)
  let net = Net.create () in
  let received = ref [] in
  Net.register net ~name:"partner" ~handler:(fun ~sender:_ body ->
      received := Demaq.xml_to_string body :: !received;
      []);
  let srv = S.deploy ~network:net gateway_program in
  S.bind_gateway srv ~queue:"out" ~endpoint:"partner" ();
  Fault.partition net "partner";
  ignore (inject_ok srv "work" "<order><id>44</id></order>");
  ignore (S.run srv);
  check int_ "nothing delivered while partitioned" 0 (List.length !received);
  Fault.reconnect net "partner";
  S.advance_time srv 10;
  ignore (S.run srv);
  check bool_ "delivered exactly once after reconnect" true
    (!received = [ "<request>44</request>" ]);
  check bool_ "a retry was used" true ((S.stats srv).S.transmit_retries >= 1);
  check int_ "no dead letter" 0 (S.stats srv).S.dead_letters;
  check int_ "no error message" 0 (List.length (bodies srv "errs"))

let test_dead_letter_after_exhaustion () =
  (* An endpoint that never comes back: after the retry budget the message
     is dead-lettered to the rule's error queue instead of being silently
     dropped or wedging the engine. *)
  let net = Net.create () in
  let received = ref 0 in
  Net.register net ~name:"partner" ~handler:(fun ~sender:_ _ ->
      incr received;
      []);
  let srv = S.deploy ~network:net gateway_program in
  S.bind_gateway srv ~queue:"out" ~endpoint:"partner" ();
  Fault.partition net "partner";
  ignore (inject_ok srv "work" "<order><id>45</id></order>");
  ignore (S.run srv);
  for _ = 1 to 8 do
    S.advance_time srv 10;
    ignore (S.run srv)
  done;
  check int_ "never delivered" 0 !received;
  check int_ "dead-lettered once" 1 (S.stats srv).S.dead_letters;
  check int_ "retry budget spent" (S.config srv).S.transmit_retries
    (S.stats srv).S.transmit_retries;
  check int_ "one error message" 1 (List.length (bodies srv "errs"));
  (* the engine is still alive for ordinary traffic *)
  Fault.reconnect net "partner";
  ignore (inject_ok srv "work" "<order><id>46</id></order>");
  ignore (S.run srv);
  check int_ "later message delivered" 1 !received

let test_duplicate_delivery_dedup () =
  (* The reliable transport really re-invokes the endpoint handler when an
     acknowledgement is lost — duplicates are not just a counter. *)
  let net = Net.create ~seed:3 () in
  let invocations = ref 0 in
  Net.register net ~name:"dup" ~handler:(fun ~sender:_ _ ->
      incr invocations;
      []);
  Net.set_drop_rate net "dup" 0.5;
  for _ = 1 to 20 do
    ignore (Net.send net ~reliable:true ~from_:"me" ~to_:"dup" (xml "<m/>"))
  done;
  let st = Net.stats net in
  check bool_ "acks were lost" true (st.Net.duplicates >= 1);
  check int_ "every delivery hit the handler" st.Net.delivered !invocations;
  check bool_ "handler saw more than one delivery per message" true
    (!invocations > st.Net.delivered - st.Net.duplicates)

(* ---- crash/restart ---- *)

let test_crash_restart_exactly_once () =
  (* Kill-and-redeploy without a checkpoint: committed work is preserved,
     interrupted work is redone — each input yields exactly one output. *)
  let dir = fresh_dir "restart" in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st ping_pong in
  ignore (inject_ok srv "in" "<ping>a</ping>");
  ignore (inject_ok srv "in" "<ping>b</ping>");
  ignore (S.step srv);
  let st2 = Fault.crash_restart cfg st in
  let srv2 = S.deploy ~store:st2 ping_pong in
  ignore (S.run srv2);
  check bool_ "both pongs exactly once" true
    (List.sort compare (bodies srv2 "out") = [ "<pong>a</pong>"; "<pong>b</pong>" ]);
  check int_ "lock table empty" 0 (active_locks srv2);
  Store.close st2

let test_torn_wal_tail () =
  (* A crash mid-append leaves a torn final record: recovery must keep the
     intact prefix and drop only the damaged transaction. *)
  let dir = fresh_dir "torn" in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st ping_pong in
  ignore (inject_ok srv "in" "<ping>keep</ping>");
  ignore (S.run srv);
  (* this inject's commit record gets torn: the message never happened *)
  ignore (inject_ok srv "in" "<ping>torn</ping>");
  let st2 = Fault.crash_restart ~tear_bytes:3 cfg st in
  let srv2 = S.deploy ~store:st2 ping_pong in
  ignore (S.run srv2);
  check bool_ "intact prefix survives, torn txn is gone" true
    (bodies srv2 "out" = [ "<pong>keep</pong>" ]);
  check int_ "idle" 0 (S.run srv2);
  Store.close st2

let test_corrupt_binary_payload_recovery () =
  (* PR 7 pins: a corrupt *binary* payload reaching recovery (bit rot, a
     buggy producer, pre-checksum memory corruption) must degrade exactly
     like a torn tail — the record is skipped with a logged warning,
     everything else replays, and the engine deploys and drains the
     survivors. Replay must never crash on it. Both recovery paths are
     exercised: WAL replay and snapshot load. *)
  let dir = fresh_dir "corrupt-bxml" in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let extra = Demaq.Message.encode_extra ~props:[] ~memberships:[] () in
  let good s = Demaq.Xml.Bxml.encode (xml ("<ping>" ^ s ^ "</ping>")) in
  let corrupt = Demaq.Xml.Bxml.magic ^ String.make 24 '\xee' in
  let ins store payload at =
    let txn = Store.begin_txn store in
    ignore
      (Store.insert txn ~queue:"in" ~payload ~extra ~enqueued_at:at
         ~durable:true);
    Store.commit txn
  in
  ins st (good "a") 1;
  ins st corrupt 2;
  ins st (good "b") 3;
  (* WAL replay path: the corrupt record is dropped, its neighbours kept *)
  let st2 = Fault.crash_restart cfg st in
  check int_ "WAL replay skips the corrupt record" 2
    (List.length (Store.all_messages st2));
  (* snapshot path: checkpoint a store holding a corrupt payload, reload *)
  ins st2 corrupt 4;
  Store.checkpoint st2;
  let st3 = Fault.crash_restart cfg st2 in
  check int_ "snapshot load skips the corrupt record" 2
    (List.length (Store.all_messages st3));
  let srv = S.deploy ~store:st3 ping_pong in
  ignore (S.run srv);
  check bool_ "survivors drain normally" true
    (List.sort compare (bodies srv "out")
    = [ "<pong>a</pong>"; "<pong>b</pong>" ]);
  Store.close st3

let test_clock_monotonic_after_restart () =
  (* Recovery resumes the virtual clock at the MAXIMUM stored timestamp,
     regardless of the order unprocessed messages are listed in — a
     restarted node must never observe time running backwards. *)
  let dir = fresh_dir "clock" in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let srv = S.deploy ~store:st ping_pong in
  ignore
    (inject_ok srv ~props:[ (Sysprop.timestamp, Value.Integer 50) ] "in"
       "<ping>late</ping>");
  ignore
    (inject_ok srv ~props:[ (Sysprop.timestamp, Value.Integer 10) ] "in"
       "<ping>early</ping>");
  let st2 = Fault.crash_restart cfg st in
  let srv2 = S.deploy ~store:st2 ping_pong in
  check int_ "clock resumed at max timestamp" 50 (Clock.now (S.clock srv2));
  ignore (S.run srv2);
  check int_ "both processed" 2 (List.length (bodies srv2 "out"));
  Store.close st2

(* ---- group commit (Sync_batch) ---- *)

let batch_cfg dir =
  (* a threshold high enough that no auto-barrier fires: the tests place
     every barrier themselves *)
  Store.durable_config
    ~sync:(Wal.Sync_batch { max_records = 1000; max_bytes = 0 })
    dir

let test_group_commit_torn_batch () =
  (* A crash tearing the WAL mid-batch: everything up to the last barrier
     replays, the commit record torn mid-write is dropped WHOLE (a
     multi-insert transaction must not be half-replayed), and everything
     after it is gone. *)
  let dir = fresh_dir "group-torn" in
  let cfg = batch_cfg dir in
  let st = Store.open_store cfg in
  (* txn A, then a barrier: the synced prefix *)
  let txn = Store.begin_txn st in
  ignore (Store.insert txn ~queue:"q" ~payload:"<m>a</m>" ~extra:"" ~enqueued_at:1 ~durable:true);
  Store.commit txn;
  check int_ "A pending before the barrier" 1 (Store.unsynced_commits st);
  check bool_ "barrier synced" true (Store.barrier st);
  check int_ "no exposure after the barrier" 0 (Store.unsynced_commits st);
  let durable_after_a = Store.durable_upto st in
  (* txn B: two inserts in ONE commit record, unsynced *)
  let txn = Store.begin_txn st in
  ignore (Store.insert txn ~queue:"q" ~payload:"<m>b1</m>" ~extra:"" ~enqueued_at:2 ~durable:true);
  ignore (Store.insert txn ~queue:"q" ~payload:"<m>b2</m>" ~extra:"" ~enqueued_at:3 ~durable:true);
  Store.commit txn;
  let bytes_after_b = (Store.stats st).Store.wal_bytes in
  (* txn C: also unsynced *)
  let txn = Store.begin_txn st in
  ignore (Store.insert txn ~queue:"q" ~payload:"<m>c</m>" ~extra:"" ~enqueued_at:4 ~durable:true);
  Store.commit txn;
  check int_ "durable watermark stuck at A" durable_after_a (Store.durable_upto st);
  check int_ "B and C exposed" 2 (Store.unsynced_commits st);
  let bytes_total = (Store.stats st).Store.wal_bytes in
  (* tear all of C plus 3 bytes of B's record tail: mid-batch, mid-record *)
  let st2 =
    Fault.crash_restart ~tear_bytes:(bytes_total - bytes_after_b + 3) cfg st
  in
  let survivors = List.map (fun m -> Store.payload st2 m) (Store.all_messages st2) in
  check bool_ "synced prefix replays; torn txn dropped whole" true
    (survivors = [ "<m>a</m>" ]);
  Store.close st2

let test_no_transmission_before_barrier () =
  (* The correctness crux of group commit: a gateway transmission must
     never precede the barrier covering the transaction that created the
     message. The endpoint handler checks the store's exposure window at
     every single delivery. *)
  let dir = fresh_dir "group-barrier" in
  let cfg = batch_cfg dir in
  let st = Store.open_store cfg in
  let net = Net.create () in
  let received = ref 0 in
  let max_exposure = ref 0 in
  Net.register net ~name:"partner" ~handler:(fun ~sender:_ _ ->
      incr received;
      max_exposure := max !max_exposure (Store.unsynced_commits st);
      []);
  let config = { S.default_config with S.batch_size = 16; group_commit = true } in
  let srv = S.deploy ~config ~store:st ~network:net gateway_program in
  S.bind_gateway srv ~queue:"out" ~endpoint:"partner" ();
  for i = 1 to 40 do
    ignore (inject_ok srv "work" (Printf.sprintf "<order><id>%d</id></order>" i))
  done;
  ignore (S.run srv);
  check int_ "all deliveries arrived" 40 !received;
  check int_ "no delivery ever saw an unsynced commit" 0 !max_exposure;
  let stats = S.stats srv in
  check bool_ "barriers actually grouped" true (stats.S.wal_group_syncs >= 1);
  (* 40 injects + 40 processing commits: far fewer fsyncs than commits *)
  check bool_ "fsyncs amortized over batches" true
    ((Store.stats st).Store.wal_syncs < 40);
  check bool_ "batch fill above one" true (stats.S.batch_fill > 1.0);
  Store.close st

let test_group_commit_crash_restart_exactly_once () =
  (* Group commit must not weaken the exactly-once contract: kill the node
     mid-batch (tail beyond the last barrier torn off) and redeploy — every
     surviving input yields exactly one output, nothing is duplicated. *)
  let dir = fresh_dir "group-restart" in
  let cfg = batch_cfg dir in
  let st = Store.open_store cfg in
  let config = { S.default_config with S.batch_size = 8; group_commit = true } in
  let srv = S.deploy ~config ~store:st ping_pong in
  ignore (inject_ok srv "in" "<ping>a</ping>");
  ignore (inject_ok srv "in" "<ping>b</ping>");
  ignore (S.run srv);
  (* a commit after the final barrier, torn off by the crash *)
  ignore (inject_ok srv "in" "<ping>lost</ping>");
  let st2 = Fault.crash_restart ~tear_bytes:3 cfg st in
  let srv2 = S.deploy ~config ~store:st2 ping_pong in
  ignore (S.run srv2);
  check bool_ "committed work exactly once, torn inject gone" true
    (List.sort compare (bodies srv2 "out") = [ "<pong>a</pong>"; "<pong>b</pong>" ]);
  check int_ "lock table empty" 0 (active_locks srv2);
  Store.close st2

(* ---- multi-worker pool (PR 3) ----

   The same crash contracts, but with a 4-domain worker pool draining the
   dispatcher: torn-WAL prefix replay, exactly-once outputs across a
   kill/redeploy, and barrier-before-transmission must all survive
   parallel execution. *)

let test_multi_worker_crash_restart_exactly_once () =
  (* Kill the node mid-run with 4 workers and a torn batch tail, redeploy
     (again with 4 workers): every surviving input yields exactly one
     output — no duplicate from a message committed by one worker and
     replayed after restart, no loss from one committed but unsynced. *)
  let dir = fresh_dir "mw-restart" in
  let cfg = batch_cfg dir in
  let st = Store.open_store cfg in
  let config =
    { S.default_config with S.batch_size = 8; group_commit = true; workers = 4 }
  in
  let srv = S.deploy ~config ~store:st ping_pong in
  check int_ "pool really has 4 workers" 4 (S.workers srv);
  for i = 1 to 12 do
    ignore (inject_ok srv "in" (Printf.sprintf "<ping>%d</ping>" i))
  done;
  (* process part of the backlog — the crash lands mid-workload *)
  ignore (S.run ~max_steps:6 srv);
  (* a commit after the final barrier, torn off by the crash *)
  ignore (inject_ok srv "in" "<ping>lost</ping>");
  let st2 = Fault.crash_restart ~tear_bytes:3 cfg st in
  let srv2 = S.deploy ~config ~store:st2 ping_pong in
  ignore (S.run srv2);
  let expected =
    List.sort compare
      (List.init 12 (fun i -> Printf.sprintf "<pong>%d</pong>" (i + 1)))
  in
  check bool_ "12 pongs exactly once, torn inject gone" true
    (List.sort compare (bodies srv2 "out") = expected);
  check int_ "lock table empty" 0 (active_locks srv2);
  check int_ "idle afterwards" 0 (S.run srv2);
  Store.close st2

let test_multi_worker_barrier_before_transmission () =
  (* Group commit's externalization rule under parallelism: whichever
     worker committed the transaction that created an outgoing message,
     the transmission must still wait for the covering barrier. The
     endpoint handler checks the exposure window on every delivery. *)
  let dir = fresh_dir "mw-barrier" in
  let cfg = batch_cfg dir in
  let st = Store.open_store cfg in
  let net = Net.create () in
  let received = ref 0 in
  let max_exposure = ref 0 in
  Net.register net ~name:"partner" ~handler:(fun ~sender:_ _ ->
      incr received;
      max_exposure := max !max_exposure (Store.unsynced_commits st);
      []);
  let config =
    { S.default_config with S.batch_size = 16; group_commit = true; workers = 4 }
  in
  let srv = S.deploy ~config ~store:st ~network:net gateway_program in
  S.bind_gateway srv ~queue:"out" ~endpoint:"partner" ();
  for i = 1 to 40 do
    ignore (inject_ok srv "work" (Printf.sprintf "<order><id>%d</id></order>" i))
  done;
  ignore (S.run srv);
  check int_ "all deliveries arrived" 40 !received;
  check int_ "no delivery ever saw an unsynced commit" 0 !max_exposure;
  check int_ "lock table empty" 0 (active_locks srv);
  let per_worker = S.worker_stats srv in
  check int_ "stats row per worker" 4 (List.length per_worker);
  check int_ "worker counters account for all processed"
    (S.stats srv).S.processed
    (List.fold_left
       (fun acc (w : Demaq.Engine.Worker_pool.worker_stats) ->
         acc + w.Demaq.Engine.Worker_pool.w_processed)
       0 per_worker);
  Store.close st

(* ---- retention GC and the per-rid caches ---- *)

let test_gc_purges_caches () =
  (* Collecting messages must also purge every in-memory per-rid cache; a
     long-running node otherwise leaks node trees, names and sent-markers
     for messages that no longer exist. *)
  let srv = S.deploy ping_pong in
  for i = 1 to 10 do
    ignore (inject_ok srv "in" (Printf.sprintf "<ping>%d</ping>" i))
  done;
  ignore (S.run srv);
  check bool_ "caches populated during processing" true
    (List.exists (fun (_, n) -> n > 0) (S.cache_sizes srv));
  let collected = S.gc srv in
  check bool_ "everything collectible was collected" true (collected >= 20);
  List.iter
    (fun (name, n) -> check int_ (Printf.sprintf "%s cache purged" name) 0 n)
    (S.cache_sizes srv)

(* ---- torn compaction ---- *)

let test_torn_compaction_keeps_state () =
  (* Compaction dies at its commit point — on either side of the snapshot
     rename — and a restart must still see every hardened message exactly
     once (before the rename: the old snapshot + full log replay; after
     it: the new snapshot + an idempotent replay of the stale log), with
     the stray tmp file cleaned up and the rid high-water mark intact. *)
  List.iter
    (fun stage ->
      let tag =
        match stage with
        | Store.Before_rename -> "before-rename"
        | Store.After_rename -> "after-rename"
      in
      let dir = fresh_dir ("torn-compact-" ^ tag) in
      let cfg =
        Store.durable_config
          ~sync:(Wal.Sync_batch { max_records = 100; max_bytes = 0 })
          dir
      in
      let st = Store.open_store cfg in
      let rids =
        List.init 5 (fun i ->
            let txn = Store.begin_txn st in
            let r =
              Store.insert txn ~queue:"q"
                ~payload:(Printf.sprintf "<m n='%d'/>" i)
                ~extra:"" ~enqueued_at:1 ~durable:true
            in
            Store.commit txn;
            r)
      in
      ignore (Store.barrier st);
      Store.set_compaction_fault st
        (Some (fun s -> if s = stage then failwith "torn compaction"));
      (match Store.compact st with
       | _ -> Alcotest.fail (tag ^ ": fault did not fire")
       | exception Failure _ -> ());
      (* the node is dead mid-compaction: restart from the disk image *)
      let st2 = Fault.crash_restart cfg st in
      List.iter
        (fun r ->
          check bool_ (Printf.sprintf "%s: rid %d survives" tag r) true
            (Store.get st2 r <> None))
        rids;
      check int_ (tag ^ ": exactly once, no replay duplicates") 5
        (List.length (Store.queue_rids st2 "q"));
      check bool_ (tag ^ ": stray snapshot tmp cleaned") false
        (Sys.file_exists (Filename.concat dir "snapshot.bin.tmp"));
      let txn = Store.begin_txn st2 in
      let r_new =
        Store.insert txn ~queue:"q" ~payload:"<new/>" ~extra:""
          ~enqueued_at:2 ~durable:true
      in
      Store.commit txn;
      check bool_ (tag ^ ": rid high-water mark intact") true
        (r_new > List.fold_left max 0 rids);
      Store.close st2)
    [ Store.Before_rename; Store.After_rename ]

(* ---- when commit records reach the file ---- *)

let records_on_disk dir =
  let n = ref 0 in
  ignore (Wal.replay (Filename.concat dir "wal.log") (fun _ -> incr n));
  !n

let test_wal_write_points () =
  (* Under both group-commit modes a commit record reaches the file at a
     barrier, not at commit: a reader of the file (a crash) sees nothing
     appended after the last barrier, and everything once the next
     barrier — explicit, or the idle straggler flush of [maintain] — has
     run. Only [Sync_batch] advances the durability watermark. *)
  List.iter
    (fun (name, sync, durable) ->
      let dir = fresh_dir ("write-points-" ^ name) in
      let st = Store.open_store (Store.durable_config ~sync dir) in
      let commit rid =
        let txn = Store.begin_txn st in
        ignore
          (Store.insert txn ~queue:"in" ~payload:(Printf.sprintf "<ping>%d</ping>" rid)
             ~extra:(Message.encode_extra ~props:[] ~memberships:[] ())
             ~enqueued_at:rid ~durable:true);
        Store.commit txn
      in
      commit 1;
      commit 2;
      check int_ (name ^ ": nothing before the first barrier") 0 (records_on_disk dir);
      check int_ (name ^ ": watermark before the barrier") 0 (Store.durable_upto st);
      ignore (Store.barrier st);
      check int_ (name ^ ": barrier writes every commit") 2 (records_on_disk dir);
      let upto = Store.durable_upto st in
      check bool_ (name ^ ": watermark after the barrier") durable (upto > 0);
      commit 3;
      check int_ (name ^ ": tail after the barrier unseen") 2 (records_on_disk dir);
      check int_ (name ^ ": pending tail") 1 (Store.unsynced_commits st);
      let srv = S.deploy ~store:st ping_pong in
      ignore (inject_ok srv "in" "<ping>4</ping>");
      let seen = records_on_disk dir in
      let pending = Store.unsynced_commits st in
      check bool_ (name ^ ": idle node holds a tail") true (pending >= 2);
      ignore (S.maintain srv);
      check int_ (name ^ ": maintain writes the idle tail") (seen + pending)
        (records_on_disk dir);
      check int_ (name ^ ": nothing pending after maintain") 0 (Store.unsynced_commits st);
      if not durable then check int_ (name ^ ": watermark stays put") 0 (Store.durable_upto st);
      Store.close st)
    [
      ("never", Wal.Sync_never, false);
      ("batch", Wal.Sync_batch { max_records = 1000; max_bytes = 0 }, true);
    ]

let suite =
  [
    ("eval fault aborts cleanly", `Quick, test_eval_fault_aborts);
    ("apply fault rolls back prior updates", `Quick, test_apply_fault_rolls_back);
    ("flaky evaluator under load drains", `Quick, test_flaky_evaluator_drains);
    ("retry after reconnect", `Quick, test_retry_after_reconnect);
    ("dead letter after retry exhaustion", `Quick, test_dead_letter_after_exhaustion);
    ("lost acks re-invoke the handler", `Quick, test_duplicate_delivery_dedup);
    ("crash/restart processes exactly once", `Quick, test_crash_restart_exactly_once);
    ("torn WAL tail keeps intact prefix", `Quick, test_torn_wal_tail);
    ("corrupt binary payload degrades like torn tail", `Quick,
     test_corrupt_binary_payload_recovery);
    ("group commit: torn mid-batch keeps synced prefix", `Quick,
     test_group_commit_torn_batch);
    ("group commit: no transmission before its barrier", `Quick,
     test_no_transmission_before_barrier);
    ("group commit: crash/restart exactly once", `Quick,
     test_group_commit_crash_restart_exactly_once);
    ("multi-worker crash/restart exactly once", `Quick,
     test_multi_worker_crash_restart_exactly_once);
    ("multi-worker: no transmission before its barrier", `Quick,
     test_multi_worker_barrier_before_transmission);
    ("clock monotonic after restart", `Quick, test_clock_monotonic_after_restart);
    ("gc purges per-rid caches", `Quick, test_gc_purges_caches);
    ("torn compaction keeps hardened state", `Quick,
     test_torn_compaction_keeps_state);
    ("group commit: records reach the file at barriers", `Quick,
     test_wal_write_points);
  ]
