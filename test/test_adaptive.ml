(* Tests for the adaptive runtime (PR 10): the AIMD group-commit
   controller as a pure state machine, the ingress admission gate's
   decision bands, the budget-bounded incremental GC, and the rid
   high-water mark across compaction and restart. The crash-side of
   compaction (torn at the commit point) lives in test_crash.ml. *)

module Controller = Demaq.Engine.Controller
module Gate = Demaq.Engine.Gate
module Store = Demaq.Store.Message_store
module Wal = Demaq.Store.Wal
module S = Demaq.Server
module Qm = Demaq.Mq.Queue_manager
module Defs = Demaq.Mq.Defs

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-adaptive-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

(* ---- the AIMD controller ---- *)

let ctl_cfg =
  {
    Controller.min_batch = 1;
    max_batch = 9;
    target_barrier_ms = 5.;
    fill_ratio = 0.5;
    increase = 4;
    decrease = 0.5;
    cooldown = 4;
    min_flush_ms = 1.;
    max_flush_ms = 50.;
  }

let good = ("fill full, fast barriers", 1.0)
let tick_good c = Controller.tick c ~fill:(float_of_int (Controller.batch c)) ~barrier_p99_ms:(snd good)
let tick_congested c = Controller.tick c ~fill:(float_of_int (Controller.batch c)) ~barrier_p99_ms:50.

let test_controller_climbs_and_clamps () =
  let c = Controller.create ~cfg:ctl_cfg () in
  check int_ "starts at the floor" 1 (Controller.batch c);
  check bool_ "first tick increases" true (tick_good c = Controller.Increased);
  check int_ "additive step" 5 (Controller.batch c);
  check bool_ "second tick increases" true (tick_good c = Controller.Increased);
  check int_ "clamped at max" 9 (Controller.batch c);
  (* at the ceiling: hold, never overshoot *)
  for _ = 1 to 10 do
    check bool_ "held at max" true (tick_good c = Controller.Held)
  done;
  check int_ "batch still at max" 9 (Controller.batch c);
  check int_ "two increases counted" 2 (Controller.increases c);
  check bool_ "flush deadline clamped" true
    (Controller.flush_ms c <= ctl_cfg.Controller.max_flush_ms)

let test_controller_idle_never_inflates () =
  (* no barriers, no commits: a nan/nan observation must never grow the
     batch target on no evidence *)
  let c = Controller.create ~cfg:ctl_cfg () in
  for _ = 1 to 20 do
    check bool_ "idle tick held" true
      (Controller.tick c ~fill:Float.nan ~barrier_p99_ms:Float.nan
       = Controller.Held)
  done;
  check int_ "batch unchanged" 1 (Controller.batch c);
  (* sparse load that cannot fill half the target: also no growth *)
  let c2 = Controller.create ~cfg:ctl_cfg ~batch:8 () in
  for _ = 1 to 20 do
    ignore (Controller.tick c2 ~fill:1.0 ~barrier_p99_ms:1.0)
  done;
  check int_ "under-filled batch target unchanged" 8 (Controller.batch c2)

let test_controller_cuts_and_recovers_monotonically () =
  let c = Controller.create ~cfg:ctl_cfg ~batch:8 () in
  check bool_ "congestion cuts" true (tick_congested c = Controller.Decreased);
  check int_ "multiplicative cut" 4 (Controller.batch c);
  (* cooldown: good signal is held for [cooldown] ticks after a cut *)
  for i = 1 to ctl_cfg.Controller.cooldown do
    check bool_
      (Printf.sprintf "cooldown tick %d held" i)
      true
      (tick_good c = Controller.Held)
  done;
  (* then recovery is monotone: only Increased/Held until the max, and
     never a decrease while the signal stays good *)
  let floor_batch = ref (Controller.batch c) in
  for _ = 1 to 20 do
    (match tick_good c with
     | Controller.Decreased -> Alcotest.fail "decrease on a good signal"
     | Controller.Increased | Controller.Held -> ());
    check bool_ "recovery is monotone" true (Controller.batch c >= !floor_batch);
    floor_batch := Controller.batch c
  done;
  check int_ "recovered to max" 9 (Controller.batch c)

let test_controller_holds_at_floor () =
  let c = Controller.create ~cfg:ctl_cfg () in
  (* batch already at min: congestion can still shorten the flush
     deadline, but once both hit their floors the controller holds *)
  for _ = 1 to 20 do
    ignore (tick_congested c)
  done;
  check int_ "batch at the floor" 1 (Controller.batch c);
  check bool_ "flush at the floor" true
    (Controller.flush_ms c = ctl_cfg.Controller.min_flush_ms);
  let d = Controller.decreases c in
  for _ = 1 to 10 do
    check bool_ "held at the floors" true
      (tick_congested c = Controller.Held)
  done;
  check int_ "no further decreases" d (Controller.decreases c)

let test_controller_no_oscillation_on_step_load () =
  (* Synthetic plant with a knee: barriers stay fast while the batch
     target is at most 6, blow the budget above it. AIMD must settle into
     a bounded probe cycle around the knee, not a full-depth flap. *)
  let cfg = { ctl_cfg with Controller.increase = 1; max_batch = 32 } in
  let c = Controller.create ~cfg () in
  let p99 b = if b <= 6 then 1.0 else 20.0 in
  let lo = ref max_int in
  let hi = ref 0 in
  for i = 1 to 100 do
    ignore
      (Controller.tick c
         ~fill:(float_of_int (Controller.batch c))
         ~barrier_p99_ms:(p99 (Controller.batch c)));
    if i > 10 then begin
      lo := min !lo (Controller.batch c);
      hi := max !hi (Controller.batch c)
    end
  done;
  check bool_ "stays near the knee (lower)" true (!lo >= 3);
  check bool_ "stays near the knee (upper)" true (!hi <= 7);
  (* cooldown bounds the probe frequency: a cut at most every
     cooldown+2 ticks, not every tick *)
  check bool_ "decreases bounded by the cooldown" true
    (Controller.decreases c <= 100 / (cfg.Controller.cooldown + 2) + 2)

(* ---- the admission gate ---- *)

let gate_cfg =
  {
    Gate.max_pending = 100;
    max_wal_bytes = 1000;
    hard = 2.;
    priority_floor = 0;
    retry_after = 1;
  }

let test_gate_bands () =
  let g = Gate.create ~cfg:gate_cfg () in
  (* under the knee: everyone is admitted *)
  check bool_ "clear: admit" true
    (Gate.decide g ~pending:50 ~unsynced_bytes:0 ~priority:0 = Gate.Admit);
  (* soft band: priorities at the floor shed, higher ones pass *)
  (match Gate.decide g ~pending:100 ~unsynced_bytes:0 ~priority:0 with
   | Gate.Shed { hard = false; retry_after } ->
     check int_ "soft shed retry-after" 1 retry_after
   | _ -> Alcotest.fail "saturated floor-priority arrival not soft-shed");
  check bool_ "soft band spares high priority" true
    (Gate.decide g ~pending:100 ~unsynced_bytes:0 ~priority:5 = Gate.Admit);
  (* hard band: nobody passes, including high priority *)
  (match Gate.decide g ~pending:200 ~unsynced_bytes:0 ~priority:5 with
   | Gate.Shed { hard = true; retry_after } ->
     check int_ "hard shed retry-after scales" 2 retry_after
   | _ -> Alcotest.fail "high-priority arrival not shed in the hard band");
  (* either axis saturates the gate: WAL exposure alone sheds too *)
  check bool_ "wal axis sheds" true
    (Gate.decide g ~pending:0 ~unsynced_bytes:2000 ~priority:5 <> Gate.Admit);
  (* counters saw all of it *)
  check int_ "admitted counted" 2 (Gate.admitted g);
  check int_ "shed counted" 3 (Gate.shed g);
  check int_ "hard shed counted" 2 (Gate.shed_hard g)

let test_gate_retry_after_cap () =
  let g = Gate.create ~cfg:gate_cfg () in
  match Gate.decide g ~pending:100_000 ~unsynced_bytes:0 ~priority:0 with
  | Gate.Shed { retry_after; _ } ->
    check int_ "retry-after capped at 30s" 30 retry_after
  | Gate.Admit -> Alcotest.fail "1000x saturation admitted"

(* ---- incremental GC ---- *)

let fwd_program = {|
create queue in kind basic mode persistent
create queue out kind basic mode persistent
create rule fwd for in if (//m) then do enqueue <ack/> into out
|}

let inject_n srv n =
  for i = 1 to n do
    ignore (S.inject srv ~queue:"in" (Demaq.xml (Printf.sprintf "<m n='%d'/>" i)))
  done

let test_gc_step_budget_and_total () =
  (* the incremental GC must collect exactly what the full GC would,
     never exceeding its per-step budget, and leave the caches empty *)
  let full = S.deploy fwd_program in
  inject_n full 20;
  ignore (S.run full);
  let expected = S.gc full in
  let srv = S.deploy fwd_program in
  inject_n srv 20;
  ignore (S.run srv);
  let total = ref 0 in
  let steps = ref 0 in
  while
    !steps < 100
    &&
    let collected, _ = S.maintain ~gc_budget:7 srv in
    check bool_ "step within budget" true (collected <= 7);
    total := !total + collected;
    incr steps;
    collected > 0 || !steps < 8
  do
    ()
  done;
  check int_ "incremental total equals full GC" expected !total;
  List.iter
    (fun (name, n) ->
      check int_ (Printf.sprintf "%s cache shrunk to zero" name) 0 n)
    (S.cache_sizes srv)

let test_gc_step_zero_budget_is_noop () =
  let srv = S.deploy fwd_program in
  inject_n srv 5;
  ignore (S.run srv);
  let collected, reclaimed = S.maintain srv in
  check int_ "no budget, nothing collected" 0 collected;
  check int_ "no threshold, nothing compacted" 0 reclaimed

let test_maintain_flushes_idle_stragglers () =
  (* regression: after a burst stops dead, the group-commit tail left
     unsynced by an idle drain must not hold the WAL axis of the
     admission gate closed forever — the maintenance tick flushes it *)
  let dir = fresh_dir () in
  let store =
    Store.open_store
      (Store.durable_config
         ~sync:(Wal.Sync_batch { max_records = 1000; max_bytes = 0 })
         dir)
  in
  let srv = S.deploy ~store fwd_program in
  ignore
    (S.enable_gate
       ~cfg:
         {
           Gate.default_config with
           Gate.max_pending = max_int;
           max_wal_bytes = 1;
         }
       srv);
  ignore (S.inject srv ~queue:"in" (Demaq.xml "<m/>"));
  check bool_ "unsynced tail outstanding" true (Store.unsynced_bytes store > 0);
  check bool_ "gate closed on the tail" true
    (S.admission srv ~queue:"in" <> Gate.Admit);
  ignore (S.maintain srv);
  check int_ "maintenance hardened the tail" 0 (Store.unsynced_bytes store);
  check bool_ "gate reopened" true (S.admission srv ~queue:"in" = Gate.Admit);
  Store.close store

(* A queue manager whose store has compacted away a long run of low rids
   below [live] newer messages, every other one of which is processed. *)
let compacted_qm ~dropped ~live =
  let st = Store.open_store Store.default_config in
  let qm = Qm.create st in
  Qm.add_queue qm (Defs.queue "q");
  let enqueue n =
    List.init n (fun i ->
        let txn = Store.begin_txn st in
        match
          Qm.enqueue qm txn ~queue:"q"
            ~payload:(Demaq.xml (Printf.sprintf "<m n='%d'/>" i)) ()
        with
        | Ok m -> Store.commit txn; m
        | Error e -> Alcotest.failf "enqueue: %s" (Qm.error_to_string e))
  in
  let process ms =
    let txn = Store.begin_txn st in
    List.iter (Qm.mark_processed qm txn) ms;
    Store.commit txn
  in
  let low = enqueue dropped in
  let fresh = enqueue live in
  process low;
  check int_ "low range collected" dropped (Qm.gc qm);
  ignore (Store.compact st);
  process (List.filteri (fun i _ -> i mod 2 = 0) fresh);
  (qm, st, fresh)

let test_gc_step_after_compaction () =
  (* the incremental GC over a store whose low rids compaction dropped:
     ticks, across their wraps, collect exactly what the full GC does, and
     every sweep starts at the lowest rid still present *)
  let dropped = 500 and live = 40 and budget = 7 in
  let reference, _, ref_fresh = compacted_qm ~dropped ~live in
  let qm, st, fresh = compacted_qm ~dropped ~live in
  let low = (List.hd fresh).Demaq.Message.rid in
  check bool_ "the dropped range lies below" true (low > dropped);
  check int_ "low_rid is the lowest present rid" low (Store.low_rid st);
  (* [dense]: no tombstones yet, so a window spans exactly [budget] rids *)
  let sweep ~dense =
    let collected = ref [] and ticks = ref 0 in
    while
      incr ticks;
      let rids = Qm.gc_step qm ~budget in
      check bool_ "tick within budget" true (List.length rids <= budget);
      collected := !collected @ rids;
      if dense && !ticks = 1 then
        check int_ "first window starts at the lowest rid" (low + budget)
          (Qm.gc_cursor qm);
      Qm.gc_cursor qm <> low && !ticks < 100
    do
      ()
    done;
    (!collected, !ticks)
  in
  let got, ticks = sweep ~dense:true in
  check (Alcotest.list int_) "first sweep = full GC" (Qm.gc_collect reference) got;
  check int_ "one window per budget of live messages" ((live / budget) + 1) ticks;
  check int_ "wrapped to the lowest present rid" low (Qm.gc_cursor qm);
  (* process the rest: the next sweep starts at the wrap point again *)
  let finish qm fresh =
    let txn = Store.begin_txn (Qm.store qm) in
    List.iter
      (fun (m : Demaq.Message.t) ->
        match Qm.get qm m.Demaq.Message.rid with
        | Some m -> Qm.mark_processed qm txn m
        | None -> ())
      fresh;
    Store.commit txn
  in
  finish reference ref_fresh;
  finish qm fresh;
  let got, _ = sweep ~dense:false in
  check (Alcotest.list int_) "second sweep = full GC" (Qm.gc_collect reference) got;
  check int_ "store empty" 0 (List.length (Store.all_messages st))

(* ---- rid high-water mark across compaction + restart ---- *)

let test_rid_hwm_survives_compaction () =
  let dir = fresh_dir () in
  let cfg =
    Store.durable_config
      ~sync:(Wal.Sync_batch { max_records = 100; max_bytes = 0 })
      dir
  in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r1 = Store.insert txn ~queue:"q" ~payload:"<a/>" ~extra:"" ~enqueued_at:1 ~durable:true in
  let r2 = Store.insert txn ~queue:"q" ~payload:"<b/>" ~extra:"" ~enqueued_at:1 ~durable:true in
  let r3 = Store.insert txn ~queue:"q" ~payload:"<c/>" ~extra:"" ~enqueued_at:1 ~durable:true in
  Store.commit txn;
  check bool_ "rids ascend" true (r1 < r2 && r2 < r3);
  (* tombstone the top rid, then compact: the snapshot drops the
     tombstone but must keep the high-water mark *)
  let txn = Store.begin_txn st in
  Store.delete txn r3;
  Store.commit txn;
  let reclaimed = Store.compact st in
  check bool_ "compaction retired log bytes" true (reclaimed > 0);
  check int_ "tombstones dropped" 0 (Store.stats st).Store.tombstones;
  Store.close st;
  let st = Store.open_store cfg in
  check bool_ "live survivors" true (Store.get st r1 <> None && Store.get st r2 <> None);
  check bool_ "tombstoned rid stays dead" true (Store.get st r3 = None);
  let txn = Store.begin_txn st in
  let r4 = Store.insert txn ~queue:"q" ~payload:"<d/>" ~extra:"" ~enqueued_at:2 ~durable:true in
  Store.commit txn;
  check bool_ "rid high-water mark preserved" true (r4 > r3);
  Store.close st

let test_compaction_due_threshold () =
  let dir = fresh_dir () in
  let cfg =
    Store.durable_config
      ~sync:(Wal.Sync_batch { max_records = 100; max_bytes = 0 })
      dir
  in
  let st = Store.open_store cfg in
  check bool_ "empty log not due" false (Store.compaction_due st ~max_wal_bytes:1);
  let txn = Store.begin_txn st in
  ignore (Store.insert txn ~queue:"q" ~payload:"<a/>" ~extra:"" ~enqueued_at:1 ~durable:true);
  Store.commit txn;
  check bool_ "grown log due at 1 byte" true (Store.compaction_due st ~max_wal_bytes:1);
  check bool_ "zero threshold disables" false (Store.compaction_due st ~max_wal_bytes:0);
  ignore (Store.compact st);
  check bool_ "compacted log no longer due" false
    (Store.compaction_due st ~max_wal_bytes:1);
  Store.close st;
  (* in-memory stores are never due *)
  let mem = Store.open_store Store.default_config in
  check bool_ "in-memory never due" false (Store.compaction_due mem ~max_wal_bytes:1);
  check int_ "in-memory compaction reclaims nothing" 0 (Store.compact mem);
  Store.close mem

let test_compaction_time_metric () =
  (* [compact] is timed into demaq_store_compaction_seconds when the
     registry's timing path is on; with it off the series is absent *)
  let module M = Demaq.Obs.Metrics in
  let series_count reg =
    let prefix = "demaq_store_compaction_seconds_count " in
    List.find_map
      (fun line ->
        if String.starts_with ~prefix line then
          Some
            (int_of_string
               (String.sub line (String.length prefix)
                  (String.length line - String.length prefix)))
        else None)
      (String.split_on_char '\n' (M.render reg))
  in
  List.iter
    (fun timing ->
      let st = Store.open_store (Store.durable_config ~sync:Wal.Sync_never (fresh_dir ())) in
      let reg = M.create ~timing () in
      Store.instrument st reg;
      for i = 1 to 2 do
        let txn = Store.begin_txn st in
        ignore
          (Store.insert txn ~queue:"q" ~payload:(Printf.sprintf "<a n='%d'/>" i)
             ~extra:"" ~enqueued_at:1 ~durable:true);
        Store.commit txn;
        ignore (Store.compact st)
      done;
      check Alcotest.(option int)
        (Printf.sprintf "timing %b: compactions observed" timing)
        (if timing then Some 2 else None)
        (series_count reg);
      Store.close st)
    [ true; false ]

let suite =
  [
    ("controller climbs and clamps", `Quick, test_controller_climbs_and_clamps);
    ("controller never inflates when idle", `Quick,
     test_controller_idle_never_inflates);
    ("controller cuts and recovers monotonically", `Quick,
     test_controller_cuts_and_recovers_monotonically);
    ("controller holds at the floor", `Quick, test_controller_holds_at_floor);
    ("controller does not oscillate on a step load", `Quick,
     test_controller_no_oscillation_on_step_load);
    ("gate decision bands", `Quick, test_gate_bands);
    ("gate retry-after cap", `Quick, test_gate_retry_after_cap);
    ("incremental gc: budget respected, total exact", `Quick,
     test_gc_step_budget_and_total);
    ("incremental gc after compaction wraps to the lowest rid", `Quick,
     test_gc_step_after_compaction);
    ("maintenance without knobs is a no-op", `Quick,
     test_gc_step_zero_budget_is_noop);
    ("maintenance flushes idle stragglers", `Quick,
     test_maintain_flushes_idle_stragglers);
    ("rid high-water mark survives compaction", `Quick,
     test_rid_hwm_survives_compaction);
    ("compaction trigger thresholds", `Quick, test_compaction_due_threshold);
    ("compaction time on the metrics registry", `Quick, test_compaction_time_metric);
  ]
