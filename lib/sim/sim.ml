(* The deterministic simulation harness (see sim.mli).

   Everything the episode touches runs on controlled time and controlled
   randomness: the engine clock is linked to a virtual Time_source, the
   dispatcher's step choice comes from the schedule (Dispatch's picked
   mode), faults/tears/partitions are schedule events, and the network's
   drop lottery never fires (no drop rates are set). The only state that
   survives a [Crash] is the store directory and the outside world (the
   network registry and the harness's own accounting) — exactly what
   survives a real kill-and-redeploy. *)

module Store = Demaq_store.Message_store
module Wal = Demaq_store.Wal
module Net = Demaq_net.Network
module S = Demaq_engine.Server
module Gate = Demaq_engine.Gate
module Fault = Demaq_engine.Fault
module Clock = Demaq_engine.Clock
module Message = Demaq_mq.Message
module Qm = Demaq_mq.Queue_manager
module Defs = Demaq_mq.Defs
module Time_source = Demaq_obs.Time_source
module Xml_parser = Demaq_xml.Parser
module Serializer = Demaq_xml.Serializer

exception Torn_compaction

type violation = { invariant : string; detail : string }

type outcome = {
  schedule : Schedule.t;
  trace : string list;
  violations : violation list;
}

(* The fixed workload (see sim.mli): a high-priority queue [qa] producing
   into [outq], a default-priority queue [qb] sending through a reliable
   gateway [gw] to the endpoint [partner], both with error queue [errs]. *)
let workload = {|
create queue qa kind basic mode persistent priority 10
create queue qb kind basic mode persistent
create queue outq kind basic mode persistent
create queue errs kind basic mode persistent
create queue gw kind outgoingGateway mode persistent
  using WS-ReliableMessaging policy pol.xml
create rule ra for qa errorqueue errs
  if (//m) then do enqueue <out>{string(//m/id)}</out> into outq
create rule rb for qb errorqueue errs
  if (//m) then do enqueue <req>{string(//m/id)}</req> into gw
|}

(* [workers = 1] is load-bearing twice over: the cooperative (picked)
   dispatch mode only applies to inline drains, and $DEMAQ_WORKERS must
   not leak nondeterminism into the episode. *)
let sim_config =
  {
    S.default_config with
    S.batch_size = 4;
    group_commit = true;
    workers = 1;
  }

(* ---- small helpers ---- *)

let contains s sub =
  let n = String.length sub in
  let last = String.length s - n in
  let rec go i = i <= last && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Workload payloads carry exactly one number, so "the digits of the
   serialized body" recovers the id for <m><id>7</id></m>, <out>7</out>
   and <req>7</req> alike. *)
let digits s =
  String.of_seq (Seq.filter (fun c -> c >= '0' && c <= '9') (String.to_seq s))

let body_string m = Serializer.to_string (Message.body m)
let id_of_tree tree = int_of_string_opt (digits (Serializer.to_string tree))

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-sim-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let cleanup_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* ---- the episode ---- *)

let run ?(blind_tear = false) ?(footprint = false) (sched : Schedule.t) =
  let dir = fresh_dir () in
  let cfg =
    Store.durable_config
      ~sync:(Wal.Sync_batch { max_records = 1000; max_bytes = 0 })
      dir
  in
  let ts = Time_source.virtual_ () in
  let net = Net.create () in
  let fault = Fault.create ~seed:sched.Schedule.seed () in
  let store = ref (Store.open_store cfg) in
  let trace = ref [] in
  let violations = ref [] in
  let emit line = trace := line :: !trace in
  let violate invariant detail = violations := { invariant; detail } :: !violations in
  (* cumulative deliveries at [partner] (id -> count), and the ids
     delivered within the current incarnation: the reliable transport is
     exactly-once per incarnation, at-least-once across a crash (the
     outbox is refilled on redeploy, WS-RM style) *)
  let delivered = Hashtbl.create 64 in
  let delivered_inc = Hashtbl.create 16 in
  (* ids the admission gate shed during a [Burst]: they were never
     injected, so they must never surface anywhere in the store — not
     even across crash-restarts (the table outlives incarnations) *)
  let shed_ids = Hashtbl.create 16 in
  Net.register net ~name:"partner" ~handler:(fun ~sender:_ body ->
      let exposure = Store.unsynced_commits !store in
      if exposure > 0 then
        violate "barrier-before-transmission"
          (Printf.sprintf "a delivery observed %d unsynced commits" exposure);
      (match id_of_tree body with
       | None -> ()
       | Some id ->
         if Hashtbl.mem delivered_inc id then
           violate "exactly-once"
             (Printf.sprintf "id %d delivered twice in one incarnation" id);
         Hashtbl.replace delivered_inc id ();
         Hashtbl.replace delivered id
           (1 + Option.value ~default:0 (Hashtbl.find_opt delivered id)));
      []);
  let deploy () =
    let srv =
      S.deploy
        ~config:{ sim_config with S.footprint_dispatch = footprint }
        ~time_source:ts ~store:!store ~network:net workload
    in
    S.bind_gateway srv ~queue:"gw" ~endpoint:"partner" ();
    S.set_fault srv (Some fault);
    (* the admission gate, driven purely by unsynced WAL bytes so its
       decisions are deterministic (pending dispatch depth is always 0
       with one cooperative worker). [qb] (priority 0) sheds first; [qa]
       (priority 10) only in the hard band at twice the threshold. *)
    ignore
      (S.enable_gate
         ~cfg:{ Gate.default_config with Gate.max_pending = max_int; max_wal_bytes = 4096 }
         srv);
    srv
  in
  let srv = ref (deploy ()) in
  let errs_len () = List.length (S.queue_contents !srv "errs") in
  let errs_base = ref (errs_len ()) in
  let queue_ids q =
    List.filter_map
      (fun m -> int_of_string_opt (digits (body_string m)))
      (S.queue_contents !srv q)
  in
  let queue_priority name =
    match Qm.find_queue (S.queue_manager !srv) name with
    | Some q -> q.Defs.priority
    | None -> 0
  in
  (* Everything on disk and synced right now: the floor a crash-restart
     must preserve. Refreshed whenever the exposure window is empty. *)
  let snapshot () =
    List.map
      (fun (m : Store.message) ->
        (m.Store.rid, m.Store.queue, Store.payload !store m, m.Store.processed))
      (Store.all_messages !store)
  in
  let durable = ref [] in
  let next_id = ref 1 in
  (* kill-and-redeploy (shared by [Crash] and [Torn_compact]): reopen the
     store from disk, check the durability floor, then bring a fresh
     server up on the surviving state *)
  let restart ~tear_bytes =
    let st2 = Fault.crash_restart ~tear_bytes cfg !store in
    store := st2;
    List.iter
      (fun (rid, queue, payload, processed) ->
        match Store.get st2 rid with
        | None ->
          violate "durability"
            (Printf.sprintf "synced rid=%d (queue %s) lost across restart" rid
               queue)
        | Some m ->
          if m.Store.queue <> queue || Store.payload st2 m <> payload then
            violate "durability"
              (Printf.sprintf "synced rid=%d changed across restart" rid)
          else if processed && not m.Store.processed then
            violate "durability"
              (Printf.sprintf "synced rid=%d lost its processed mark" rid))
      !durable;
    Hashtbl.reset delivered_inc;
    srv := deploy ();
    errs_base := errs_len ();
    durable := snapshot ()
  in
  (* invariants checked after every event *)
  let check () =
    (* order: qa is drained FIFO, and its outputs land in [outq] in
       processing order, so the id sequence must be strictly increasing —
       at every point of the episode, including across crash-redo (a WAL
       tear only ever removes a suffix) *)
    let rec ascending = function
      | a :: b :: _ when a >= b -> false
      | _ :: rest -> ascending rest
      | [] -> true
    in
    let out = queue_ids "outq" in
    if not (ascending out) then
      violate "order"
        ("outq ids out of FIFO order: "
        ^ String.concat "," (List.map string_of_int out));
    (* abort-error: within one incarnation nothing is ever lost, so the
       error queue's growth must equal the §3.6 routings performed *)
    let st = S.stats !srv in
    let expected = !errs_base + st.S.txn_aborts + st.S.dead_letters in
    let actual = errs_len () in
    if actual <> expected then
      violate "abort-error"
        (Printf.sprintf
           "error queue has %d messages, expected %d (base %d + %d aborts + %d \
            dead letters)"
           actual expected !errs_base st.S.txn_aborts st.S.dead_letters);
    (* provenance: every message's durable causal edge is well-formed —
       a recorded parent implies a non-empty flow id, the parent rid is
       strictly smaller (edges acyclic), it still exists (the sim never
       GCs), and it carries the same flow id. Checked after every event,
       so it also holds across crash-redo with a torn WAL tail: a tear
       removes a suffix, and a child's parent always has a smaller rid. *)
    let prov_by_rid = Hashtbl.create 64 in
    let all = Store.all_messages !store in
    List.iter
      (fun (sm : Store.message) ->
        let _, _, p = Message.decode_extra sm.Store.extra in
        Hashtbl.replace prov_by_rid sm.Store.rid p)
      all;
    List.iter
      (fun (sm : Store.message) ->
        let p = Hashtbl.find prov_by_rid sm.Store.rid in
        if p.Message.p_parent >= 0 then begin
          if p.Message.p_flow = "" then
            violate "provenance"
              (Printf.sprintf "rid=%d has a parent but no flow id" sm.Store.rid);
          if p.Message.p_parent >= sm.Store.rid then
            violate "provenance"
              (Printf.sprintf "rid=%d has parent %d >= itself (cycle)"
                 sm.Store.rid p.Message.p_parent);
          match Hashtbl.find_opt prov_by_rid p.Message.p_parent with
          | None ->
            violate "provenance"
              (Printf.sprintf "rid=%d's parent %d is not in the store"
                 sm.Store.rid p.Message.p_parent)
          | Some pp ->
            if pp.Message.p_flow <> p.Message.p_flow then
              violate "provenance"
                (Printf.sprintf
                   "rid=%d (flow %s) and its parent %d (flow %s) disagree"
                   sm.Store.rid p.Message.p_flow p.Message.p_parent
                   pp.Message.p_flow)
        end)
      all;
    (* shed-isolation: a message the gate refused was never admitted, so
       no trace of its id may exist in the store — shedding must not
       half-apply. Match the exact workload element shapes (an error-queue
       body embeds other messages plus numeric metadata, so folding all
       its digits into one number would cry wolf). *)
    let leaked body id =
      contains body (Printf.sprintf "<id>%d</id>" id)
      || contains body (Printf.sprintf "<out>%d</out>" id)
      || contains body (Printf.sprintf "<req>%d</req>" id)
    in
    List.iter
      (fun (sm : Store.message) ->
        let body = Store.payload !store sm in
        Hashtbl.iter
          (fun id () ->
            if leaked body id then
              violate "shed-isolation"
                (Printf.sprintf
                   "shed id %d surfaced in the store (rid=%d queue=%s)" id
                   sm.Store.rid sm.Store.queue))
          shed_ids)
      all;
    if Store.unsynced_commits !store = 0 then durable := snapshot ()
  in
  let apply_event (ev : Schedule.event) =
    match ev with
    | Schedule.Inject q -> (
      let id = !next_id in
      incr next_id;
      let payload = Xml_parser.parse (Printf.sprintf "<m><id>%d</id></m>" id) in
      match S.inject !srv ~queue:q payload with
      | Ok m -> emit (Printf.sprintf "inject %s id=%d rid=%d" q id m.Message.rid)
      | Error e ->
        emit
          (Printf.sprintf "inject %s id=%d rejected: %s" q id
             (Qm.error_to_string e)))
    | Schedule.Step k -> (
      (* the highest priority among unprocessed messages is the floor the
         picked dispatcher must respect: with one cooperative worker,
         nothing is in flight between events, so every unprocessed message
         is a runnable candidate *)
      let best =
        List.fold_left
          (fun acc (m : Message.t) -> max acc (queue_priority m.Message.queue))
          min_int
          (Qm.unprocessed (S.queue_manager !srv))
      in
      S.set_picker !srv (Some (fun n -> k mod n));
      match S.step !srv with
      | S.Processed m ->
        let p = queue_priority m.Message.queue in
        if p < best then
          violate "priority"
            (Printf.sprintf
               "step processed %s (priority %d) while priority %d work was \
                runnable"
               m.Message.queue p best);
        emit (Printf.sprintf "step %d -> rid=%d %s" k m.Message.rid m.Message.queue)
      | S.Idle -> emit (Printf.sprintf "step %d -> idle" k))
    | Schedule.Advance n ->
      S.advance_time !srv n;
      emit (Printf.sprintf "advance %d -> t=%d" n (Clock.now (S.clock !srv)))
    | Schedule.Barrier ->
      let synced = Store.barrier !store in
      let sent = S.pump_gateways !srv in
      emit (Printf.sprintf "barrier synced=%b sent=%d" synced sent)
    | Schedule.Partition e ->
      if List.mem e (Net.endpoint_names net) then begin
        Fault.partition net e;
        emit ("partition " ^ e)
      end
      else emit (Printf.sprintf "partition %s (unknown endpoint)" e)
    | Schedule.Reconnect e ->
      if List.mem e (Net.endpoint_names net) then begin
        Fault.reconnect net e;
        emit ("reconnect " ^ e)
      end
      else emit (Printf.sprintf "reconnect %s (unknown endpoint)" e)
    | Schedule.Fail_eval ->
      Fault.fail_next_eval fault;
      emit "fail-eval armed"
    | Schedule.Fail_apply ->
      Fault.fail_next_apply fault;
      emit "fail-apply armed"
    | Schedule.Crash n ->
      (* An honest crash can only lose WAL bytes past the last fsync; the
         requested tear is capped there. [blind_tear] skips the cap (up to
         the whole log) to manufacture detectable durability violations —
         the self-test of this checker and the shrinker. *)
      let tear =
        if blind_tear then min n (Store.stats !store).Store.wal_bytes
        else min n (Store.unsynced_bytes !store)
      in
      restart ~tear_bytes:tear;
      emit
        (Printf.sprintf "crash tear=%d -> live=%d unprocessed=%d" tear
           (List.length (Store.all_messages !store))
           (List.length (Store.unprocessed !store)))
    | Schedule.Burst n ->
      (* a load spike through the admission gate: alternate the default-
         priority and high-priority queues so the priority floor is
         exercised — in the soft band only [qb] arrivals are refused *)
      let accepted = ref 0 in
      let shed = ref 0 in
      for i = 1 to n do
        let q = if i mod 2 = 0 then "qa" else "qb" in
        let id = !next_id in
        incr next_id;
        match S.admission !srv ~queue:q with
        | Gate.Shed _ ->
          incr shed;
          Hashtbl.replace shed_ids id ()
        | Gate.Admit -> (
          let payload =
            Xml_parser.parse (Printf.sprintf "<m><id>%d</id></m>" id)
          in
          match S.inject !srv ~queue:q payload with
          | Ok _ -> incr accepted
          | Error _ -> ())
      done;
      emit (Printf.sprintf "burst %d accepted=%d shed=%d" n !accepted !shed)
    | Schedule.Compact ->
      (* [compact] hardens the pending batch first, so pumping the
         gateways right after is barrier-safe — same shape as [Barrier] *)
      let reclaimed = Store.compact !store in
      let sent = S.pump_gateways !srv in
      emit (Printf.sprintf "compact reclaimed=%d sent=%d" reclaimed sent)
    | Schedule.Torn_compact n ->
      (* die at the compaction commit point, then restart from whatever
         the disk holds. The barrier below runs before the fault can
         fire, so the entire pre-compaction state is the durability
         floor the restart must preserve — on either side of the
         snapshot slot's commit point. *)
      ignore (Store.barrier !store);
      durable := snapshot ();
      let stage =
        if n mod 2 = 0 then Store.Before_commit else Store.After_commit
      in
      Store.set_compaction_fault !store
        (Some (fun s -> if s = stage then raise Torn_compaction));
      (try ignore (Store.compact !store) with Torn_compaction -> ());
      restart ~tear_bytes:0;
      emit
        (Printf.sprintf "torn-compact %s -> live=%d"
           (match stage with
           | Store.Before_commit -> "before-commit"
           | Store.After_commit -> "after-commit")
           (List.length (Store.all_messages !store)))
  in
  let finish () =
    (* final drain: heal the world, then run every retry and timer to
       quiescence so completeness can be judged *)
    S.set_picker !srv None;
    List.iter
      (fun e -> if not (Net.connected net e) then Fault.reconnect net e)
      (Net.endpoint_names net);
    let guard = ref 0 in
    let continue_ = ref true in
    while !continue_ && !guard < 1000 do
      incr guard;
      let n = S.run !srv in
      match S.next_timer_due !srv with
      | Some due ->
        let now = Clock.now (S.clock !srv) in
        S.advance_time !srv (max 1 (due - now))
      | None -> if n = 0 then continue_ := false
    done;
    ignore (Store.barrier !store);
    ignore (S.pump_gateways !srv);
    check ();
    (* completeness: every surviving workload id is fully accounted for *)
    (match Store.unprocessed !store with
     | [] -> ()
     | left ->
       violate "exactly-once"
         (Printf.sprintf "%d messages left unprocessed after the final drain"
            (List.length left)));
    let errs_bodies = List.map body_string (S.queue_contents !srv "errs") in
    let errored id =
      List.exists
        (fun b ->
          contains b (Printf.sprintf "<id>%d</id>" id)
          || contains b (Printf.sprintf "<req>%d</req>" id))
        errs_bodies
    in
    let out_ids = queue_ids "outq" in
    let qa_ids = queue_ids "qa" in
    let qb_ids = queue_ids "qb" in
    List.iter
      (fun id ->
        let outs = List.length (List.filter (( = ) id) out_ids) in
        let err = if errored id then 1 else 0 in
        if outs + err <> 1 then
          violate "exactly-once"
            (Printf.sprintf "qa id %d: %d outputs, %d error messages" id outs err))
      qa_ids;
    List.iter
      (fun id ->
        if not (List.mem id qa_ids) then
          violate "exactly-once" (Printf.sprintf "output for unknown id %d" id))
      out_ids;
    List.iter
      (fun id ->
        let n = Option.value ~default:0 (Hashtbl.find_opt delivered id) in
        if n = 0 && not (errored id) then
          violate "exactly-once"
            (Printf.sprintf "qb id %d neither delivered nor errored" id))
      qb_ids;
    let total_delivered = Hashtbl.fold (fun _ n acc -> acc + n) delivered 0 in
    let st = S.stats !srv in
    emit
      (Printf.sprintf
         "final processed=%d aborts=%d dead-letters=%d outq=%d errs=%d \
          delivered=%d"
         st.S.processed st.S.txn_aborts st.S.dead_letters
         (List.length out_ids) (List.length errs_bodies) total_delivered)
  in
  (try
     List.iter
       (fun ev ->
         apply_event ev;
         check ())
       sched.Schedule.events;
     finish ()
   with e ->
     (* the engine must survive everything a schedule throws at it: an
        escaped exception is itself a finding *)
     violate "engine-exception" (Printexc.to_string e));
  (try Store.close !store with _ -> ());
  cleanup_dir dir;
  { schedule = sched; trace = List.rev !trace; violations = List.rev !violations }

(* ---- shrinking ---- *)

let fails ?blind_tear ?footprint events (s : Schedule.t) =
  (run ?blind_tear ?footprint { s with Schedule.events }).violations <> []

(* One left-to-right pass removing aligned [chunk]-sized windows wherever
   the schedule still fails without them. *)
let shrink_pass ?blind_tear ?footprint (s : Schedule.t) chunk events =
  let rec go i events =
    if i >= List.length events then events
    else
      let candidate =
        List.filteri (fun j _ -> j < i || j >= i + chunk) events
      in
      if List.length candidate < List.length events
         && fails ?blind_tear ?footprint candidate s
      then go i candidate
      else go (i + chunk) events
  in
  go 0 events

let shrink ?blind_tear ?footprint (s : Schedule.t) =
  if not (fails ?blind_tear ?footprint s.Schedule.events s) then s
  else begin
    let events = ref s.Schedule.events in
    let chunk = ref (max 1 ((List.length !events + 1) / 2)) in
    while !chunk >= 1 do
      let shrunk = shrink_pass ?blind_tear ?footprint s !chunk !events in
      let progress = List.length shrunk < List.length !events in
      events := shrunk;
      (* on progress, retry the same granularity: a removal can unlock
         neighbours; otherwise halve down to single events *)
      if not progress then chunk := (if !chunk = 1 then 0 else !chunk / 2)
    done;
    { s with Schedule.events = !events }
  end

(* ---- reporting ---- *)

let report (o : outcome) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "# schedule: seed %d, %d events\n" o.schedule.Schedule.seed
       (List.length o.schedule.Schedule.events));
  Buffer.add_string b (Schedule.to_string o.schedule);
  Buffer.add_string b "# trace\n";
  List.iter (fun l -> Buffer.add_string b ("  " ^ l ^ "\n")) o.trace;
  (match o.violations with
   | [] -> Buffer.add_string b "# verdict: all invariants held\n"
   | vs ->
     Buffer.add_string b
       (Printf.sprintf "# verdict: %d violation(s)\n" (List.length vs));
     List.iter
       (fun v ->
         Buffer.add_string b
           (Printf.sprintf "  VIOLATION %s: %s\n" v.invariant v.detail))
       vs);
  Buffer.contents b

(* ---- sweeping ---- *)

type sweep_result =
  | Clean of int
  | Failed of {
      seed : int;
      outcome : outcome;
      shrunk : Schedule.t;
      shrunk_outcome : outcome;
    }

let sweep ?blind_tear ?footprint ?(events = 40) ?(progress = fun _ -> ()) ~seed
    ~iters () =
  let rec go i =
    if i >= iters then Clean iters
    else begin
      progress i;
      let s = Schedule.generate ~seed:(seed + i) ~events () in
      let o = run ?blind_tear ?footprint s in
      if o.violations = [] then go (i + 1)
      else begin
        let shrunk = shrink ?blind_tear ?footprint s in
        Failed
          {
            seed = seed + i;
            outcome = o;
            shrunk;
            shrunk_outcome = run ?blind_tear ?footprint shrunk;
          }
      end
    end
  in
  go 0
