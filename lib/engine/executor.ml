(* The executor: Demaq's single-message transaction (§3.1), extracted from
   the engine monolith so it can run on a pool of worker domains.

   One message's processing is the paper's iterative cycle: evaluate every
   pertinent rule against a snapshot, accumulate the pending-action list,
   apply it atomically, with failures routed as error messages (§3.6). The
   executor owns the shared engine context [t] and makes that cycle safe
   to run concurrently from several domains:

   - [state_mu] guards all shared engine state (queue manager, store,
     outboxes, timers). Functions suffixed [_unlocked] — and the
     whole error-routing family [raise_error]/[enqueue_internal]/
     [register_echo_timer] plus [in_txn] — assume it is HELD; public
     entry points take it. Per-message state (decoded body, document
     node, provenance) lives on the queue manager's cached [Message.t]
     and dies with it at retention GC; its lazy cells are forced only
     under [state_mu].
   - [process] holds the lock only around the setup (fetch, rule-plan
     lookup, prefilter) and apply/commit phases. The CPU-heavy rule
     evaluation runs UNLOCKED: message trees are immutable once parsed,
     and the qs: host callbacks re-acquire [state_mu] per call.
     Same-queue and same-slice conflicts cannot run
     concurrently (the dispatcher partitions on exactly the resources
     [resources_for] reports), so a rule's view of its own queue and
     slices is serializable; reads of *other* queues see read-committed
     state, which single-worker mode — the deterministic reference —
     never exercises differently from the seed engine.
   - An inert message (no plan of its queue or of its slices can react to
     it) is processed by the transaction that creates it rather than
     dispatched: [admitted_unlocked] marks it processed in that
     transaction, and a [Store.on_commit] hook counts it and records its
     span once the transaction commits. [process] returns how many
     messages its transaction processed, inert ones included.
   - Statistics live in a sharded [Demaq_obs.Metrics] registry: workers
     mutate their own shard without synchronization, reads aggregate.
     Lifecycle spans go to a bounded [Demaq_obs.Trace] ring with its own
     mutex. Lock order: state_mu -> (span-ring mutex | wal mutex | the
     monitor of [pool], the worker pool this context owns); never the
     reverse. *)

module Tree = Demaq_xml.Tree
module Value = Demaq_xquery.Value
module Eval = Demaq_xquery.Eval
module Context = Demaq_xquery.Context
module Update = Demaq_xquery.Update
module Store = Demaq_store.Message_store
module Qm = Demaq_mq.Queue_manager
module Message = Demaq_mq.Message
module Defs = Demaq_mq.Defs
module Plan_ir = Demaq_xquery.Plan
module Compiler = Demaq_lang.Compiler
module Prefilter = Demaq_lang.Prefilter
module Network = Demaq_net.Network
module Wsdl = Demaq_net.Wsdl
module Metrics = Demaq_obs.Metrics
module Trace = Demaq_obs.Trace
module Flow = Demaq_obs.Flow

let log = Logs.Src.create "demaq.executor" ~doc:"Demaq executor"

module Log = (val Logs.src_log log : Logs.LOG)

type config = {
  footprint_dispatch : bool;
      (* partition dispatch on the compiled rules' static conflict
         footprints instead of whole queues: same-queue messages whose
         admitted rules touch disjoint resources run concurrently *)
  trace_capacity : int;
  system_error_queue : string option;
  node_name : string;
  batch_size : int;
  group_commit : bool;
  workers : int;
  metrics : bool;
      (* enables the wall-clock/histogram path (phase latencies, fsync
         timing). Counters are always live — they cost two plain stores
         per event and [stats] depends on them. *)
}

type gateway_binding = { endpoint : string; replies_to : string option }

(* The executor's registered instruments. Counters mirror the seed
   engine's statistics one to one; histograms time the §3.1 phases. *)
type metrics = {
  m_processed : Metrics.counter;
  m_rule_evaluations : Metrics.counter;
  m_messages_created : Metrics.counter;
  m_errors_raised : Metrics.counter;
  m_transmissions : Metrics.counter;
  m_timers_fired : Metrics.counter;
  m_gc_collected : Metrics.counter;
  m_prefilter_skips : Metrics.counter;
  m_txn_aborts : Metrics.counter;
  m_transmit_retries : Metrics.counter;
  m_dead_letters : Metrics.counter;
  m_admission_scans : Metrics.counter;
      (* messages whose rule admission resolved from the payload synopsis
         without ever materializing a body tree *)
  m_trees_materialized : Metrics.counter;  (* payload decodes into trees *)
  m_decoded_bytes : Metrics.counter;  (* payload bytes those decodes read *)
  m_lock_seconds : Metrics.histogram;  (* setup: fetch + plans + prefilter *)
  m_decode_seconds : Metrics.histogram;  (* lazy body decode inside setup *)
  m_eval_seconds : Metrics.histogram;  (* unlocked snapshot evaluation *)
  m_apply_seconds : Metrics.histogram;  (* locked apply + commit *)
  m_barrier_seconds : Metrics.histogram;  (* group-commit barriers *)
}

type t = {
  cfg : config;
  qm : Qm.t;
  st : Store.t;
  net : Network.t;
  mutable compiled : Compiler.t;
  timers : Timer_wheel.t;
  clk : Clock.t;
  state_mu : Mutex.t;  (* guards everything below except the atomics/trace *)
  collection_cache : (string, Value.t) Hashtbl.t;
  bindings : (string, gateway_binding) Hashtbl.t;  (* outgoing queue -> route *)
  interfaces : (string, Wsdl.t) Hashtbl.t;  (* WSDL file name -> parsed model *)
  outbox : (string, int Queue.t) Hashtbl.t;
      (* untransmitted rids per outgoing gateway queue, so the pump never
         rescans whole queues *)
  pool : Worker_pool.t;  (* the worker domains and the dispatcher they drain *)
  mutable batch_target : int;
      (* group-commit batch the coordinator drains per barrier; fixed at
         cfg.batch_size unless the adaptive controller is steering it *)
  reg : Metrics.registry;  (* shard 0 = coordinator, i+1 = worker i *)
  met : metrics;
  spans : Trace.t;  (* per-message lifecycle ring (capacity from cfg) *)
  flows : Flow.t;  (* bounded causal flow store (cascade trees) *)
  mutable flow_seq : int;
      (* next flow-id sequence number; seeded at the store's rid
         high-water mark so ids minted after a crash-restart can never
         collide with flows persisted before it (every mint is followed
         by at least one rid allocation, so used seqs stay < next rid) *)
  wait_hists : (string, Metrics.histogram) Hashtbl.t;
      (* per-queue demaq_queue_wait_seconds, registered lazily *)
  mutable fault : Fault.t option;  (* armed fault-injection points *)
  mutable inline_processed : int;
      (* inert messages processed by their creating transaction, counted
         at its commit; under [state_mu] *)
}

let make_metrics reg =
  {
    m_processed = Metrics.counter reg "demaq_processed_total" ~help:"Messages processed";
    m_rule_evaluations =
      Metrics.counter reg "demaq_rule_evaluations_total" ~help:"Rule bodies evaluated";
    m_messages_created =
      Metrics.counter reg "demaq_messages_created_total" ~help:"Messages enqueued";
    m_errors_raised =
      Metrics.counter reg "demaq_errors_raised_total" ~help:"Errors routed (§3.6)";
    m_transmissions =
      Metrics.counter reg "demaq_transmissions_total"
        ~help:"Gateway transmission attempts";
    m_timers_fired =
      Metrics.counter reg "demaq_timers_fired_total" ~help:"Echo timers fired";
    m_gc_collected =
      Metrics.counter reg "demaq_gc_collected_total"
        ~help:"Messages reclaimed by the retention GC";
    m_prefilter_skips =
      Metrics.counter reg "demaq_prefilter_skips_total"
        ~help:"Rule evaluations suppressed by the condition pre-filter";
    m_txn_aborts =
      Metrics.counter reg "demaq_txn_aborts_total" ~help:"Transactions aborted";
    m_transmit_retries =
      Metrics.counter reg "demaq_transmit_retries_total"
        ~help:"Transmission retries armed through the timer wheel";
    m_dead_letters =
      Metrics.counter reg "demaq_dead_letters_total"
        ~help:"Reliable transmissions given up on";
    m_admission_scans =
      Metrics.counter reg "demaq_admission_scans_total"
        ~help:"Messages admitted/skipped from the payload synopsis without materializing a tree";
    m_trees_materialized =
      Metrics.counter reg "demaq_trees_materialized_total"
        ~help:"Stored payloads decoded into body trees";
    m_decoded_bytes =
      Metrics.counter reg "demaq_payload_decoded_bytes_total"
        ~help:"Stored payload bytes read by body decodes";
    m_lock_seconds =
      Metrics.histogram reg "demaq_phase_lock_seconds"
        ~help:"Transaction setup: fetch, plan lookup, prefilter (sampled 1:8 unless tracing)";
    m_decode_seconds =
      Metrics.histogram reg "demaq_phase_decode_seconds"
        ~help:"Lazy payload decode during setup (sampled 1:8 unless tracing)";
    m_eval_seconds =
      Metrics.histogram reg "demaq_phase_eval_seconds"
        ~help:"Unlocked snapshot rule evaluation (sampled 1:8 unless tracing)";
    m_apply_seconds =
      Metrics.histogram reg "demaq_phase_apply_seconds"
        ~help:"Locked update apply and commit (sampled 1:8 unless tracing)";
    m_barrier_seconds =
      Metrics.histogram reg "demaq_barrier_seconds"
        ~help:"Group-commit durability barriers";
  }

let create ~cfg ~qm ~st ~net ~compiled ~clk () =
  let reg =
    Metrics.create ~timing:cfg.metrics
      ~time_source:(Clock.time_source clk)
      ~shards:(1 + max 1 (min cfg.workers 64))
      ()
  in
  {
    cfg;
    qm;
    st;
    net;
    compiled;
    timers = Timer_wheel.create ~clock:clk ();
    clk;
    state_mu = Mutex.create ();
    collection_cache = Hashtbl.create 8;
    bindings = Hashtbl.create 8;
    interfaces = Hashtbl.create 4;
    outbox = Hashtbl.create 8;
    pool = Worker_pool.create ~registry:reg ~workers:cfg.workers ();
    batch_target = max 1 cfg.batch_size;
    reg;
    met = make_metrics reg;
    spans = Trace.create ~capacity:cfg.trace_capacity;
    flows = Flow.create ();
    flow_seq = Store.next_rid st;
    wait_hists = Hashtbl.create 8;
    fault = None;
    inline_processed = 0;
  }

let locked t f = Mutex.protect t.state_mu f
let set_fault t fault = t.fault <- fault

(* Group commit (§4.1; Gray's "Queues Are Databases"): under
   [Wal.Sync_batch] commits append their log record but defer the fsync;
   [harden] issues the barrier that makes everything logged so far durable.
   The engine must call it before any effect escapes the process — gateway
   transmissions, timer-armed retries — so that no externalized action ever
   references a transaction a crash could still lose. That holds with
   [group_commit] off too: a [Sync_batch] store defers every fsync to a
   barrier either way, and the config only decides whether [Server.run]
   adds one per drain. The barrier is serialized inside the WAL, so one
   worker's harden covers every record any worker appended before it. *)
let harden t =
  if Metrics.timing_on t.reg then begin
    let t0 = Metrics.now t.reg in
    ignore (Store.barrier t.st);
    Metrics.observe t.met.m_barrier_seconds (Metrics.now t.reg - t0)
  end
  else ignore (Store.barrier t.st)

(* Crash safety (§3.1, §3.6): every state change runs inside [in_txn], so
   that an exception anywhere — evaluator bugs, injected faults, broken
   endpoint handlers — aborts the transaction via [Store.abort], undoing
   its changes, instead of leaving them half applied. Assumes [state_mu]
   is held; [with_txn] is the self-locking variant. *)
let in_txn t f =
  let txn = Store.begin_txn t.st in
  match f txn with
  | v ->
    Store.commit txn;
    v
  | exception e ->
    Metrics.incr t.met.m_txn_aborts;
    Store.abort txn;
    (* earlier transactions of the current batch are committed but possibly
       unsynced; an abort must not widen their exposure window *)
    harden t;
    raise e

(* Retention GC (§2.3.3). Collecting a message drops its cached record
   and with it everything derived from it; an outbox entry left behind is
   skipped by the pump, which finds no message for it. *)
let counted_gc t n =
  Metrics.add t.met.m_gc_collected n;
  n

let run_gc t = locked t (fun () -> counted_gc t (Qm.gc t.qm))

let with_txn t f = locked t (fun () -> in_txn t f)

let exn_description = function
  | Fault.Injected msg -> msg
  | Context.Eval_error msg -> msg
  | e -> Printexc.to_string e

let set_collection t name docs =
  locked t @@ fun () ->
  Qm.set_collection t.qm name docs;
  Hashtbl.remove t.collection_cache name

let outbox_for t queue =
  match Hashtbl.find_opt t.outbox queue with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace t.outbox queue q;
    q

let note_outgoing t (qdef : Defs.queue_def) (m : Message.t) =
  if qdef.Defs.kind = Defs.Outgoing_gateway then
    Queue.push m.Message.rid (outbox_for t m.Message.queue)

(* ---- causal provenance (flow tracing); assumes [state_mu] held ---- *)

let mint_flow t ~origin =
  let seq = t.flow_seq in
  t.flow_seq <- seq + 1;
  Printf.sprintf "%s-%s-%d" t.cfg.node_name origin seq

(* Root provenance for a message entering from outside the cascade:
   adopt the caller-supplied flow id (X-Demaq-Flow) or mint one. *)
let root_prov t ?flow ~origin () =
  let f =
    match flow with Some f when f <> "" -> f | _ -> mint_flow t ~origin
  in
  { Message.p_flow = f; p_parent = -1; p_cause = origin }

(* Child provenance: inherit the causing message's flow, point the edge at
   it, blame [cause] (the rule, or an origin kind like "timer"/"error"). *)
let derived_prov ~cause (m : Message.t) =
  {
    Message.p_flow = m.Message.prov.Message.p_flow;
    p_parent = m.Message.rid;
    p_cause = cause;
  }

(* §3.6: an error message is caused by the message whose processing
   failed; the edge keeps the failing rule's name when one is blamed. *)
let error_prov ?rule (m : Message.t) =
  derived_prov ~cause:(Option.value ~default:"error" rule) m

let observe_flow t ~rid ~queue ~tick (prov : Message.provenance) =
  if prov.Message.p_flow <> "" then
    Flow.observe t.flows ~rid ~queue ~flow:prov.Message.p_flow
      ~parent:prov.Message.p_parent ~cause:prov.Message.p_cause ~tick

let note_flow t (m : Message.t) =
  observe_flow t ~rid:m.Message.rid ~queue:m.Message.queue
    ~tick:m.Message.enqueued_at m.Message.prov

(* Per-queue wait histograms are registered on first use; the registry
   has bounded histogram capacity, so past [max_wait_hists] distinct
   queues the remainder share one "other" series (never silently: the
   cap only coarsens attribution, every observation still lands). *)
let max_wait_hists = 24
let wait_overflow_key = "\x00other"

let wait_hist_for t queue =
  match Hashtbl.find_opt t.wait_hists queue with
  | Some h -> h
  | None ->
    let key, name =
      if Hashtbl.length t.wait_hists < max_wait_hists then
        (queue, Printf.sprintf "demaq_queue_wait_seconds{queue=\"%s\"}" queue)
      else (wait_overflow_key, "demaq_queue_wait_seconds{queue=\"other\"}")
    in
    (match Hashtbl.find_opt t.wait_hists key with
     | Some h -> h
     | None ->
       let h =
         Metrics.histogram t.reg name
           ~help:"Enqueue-to-dispatch queueing delay, per queue"
       in
       Hashtbl.replace t.wait_hists key h;
       h)

let bind_gateway t ~queue ?endpoint ?replies_to () =
  let endpoint = Option.value ~default:queue endpoint in
  Hashtbl.replace t.bindings queue { endpoint; replies_to }

let register_interface t ~file text =
  match Wsdl.parse text with
  | Ok wsdl ->
    Hashtbl.replace t.interfaces file wsdl;
    Ok ()
  | Error _ as e -> e

(* ---- node handles for message bodies ---- *)

(* Forcing a body that is still raw bytes is the decode the streaming
   admission path exists to avoid; route every force through here so the
   avoided/performed ratio is observable. Messages admitted from a tree
   (ingress, error messages) are born with a forced body and never count;
   a rule-created message carries only its bytes and counts when first
   read. *)
let count_decode t bytes =
  Metrics.incr t.met.m_trees_materialized;
  Metrics.add t.met.m_decoded_bytes (String.length bytes)

let force_body_unlocked t (m : Message.t) =
  if not (Message.body_forced m) then count_decode t (Message.raw m);
  Message.body m

(* Rules see messages as document nodes (§3.4: qs:message() "returns the
   document node of the currently processed message"); one document per
   message, held by its cached record, so node identity and document order
   are stable across qs:queue()/qs:slice() calls. Forced under [state_mu]:
   two domains forcing one lazy cell at once raise [Lazy.Undefined]. *)
let message_node_unlocked t (m : Message.t) =
  ignore (force_body_unlocked t m);
  Message.doc m

let message_node t m = locked t (fun () -> message_node_unlocked t m)

let collection_value_unlocked t name =
  match Hashtbl.find_opt t.collection_cache name with
  | Some v -> v
  | None ->
    let v =
      List.map
        (fun tree -> Value.Node (Eval.doc_node_of_tree tree))
        (Qm.collection t.qm name)
    in
    Hashtbl.replace t.collection_cache name v;
    v

(* ---- evaluation host (the qs: library, §3.4/§3.5) ----

   The host runs during the UNLOCKED evaluation phase, so every callback
   that touches shared state takes [state_mu] itself. *)

let host_for t (m : Message.t) ~slice_ctx : Context.host =
  let queue_nodes name =
    locked t (fun () ->
        List.map
          (fun msg -> Value.Node (message_node_unlocked t msg))
          (Qm.queue_messages t.qm name))
  in
  {
    Context.h_message = (fun () -> [ Value.Node (message_node t m) ]);
    h_queue =
      (fun name ->
        queue_nodes (Option.value ~default:m.Message.queue name));
    h_property =
      (fun name ->
        match Message.property m name with
        | Some a -> [ Value.Atom a ]
        | None -> []);
    h_slice =
      (fun () ->
        match slice_ctx with
        | None -> Context.eval_error "qs:slice() outside a slicing rule"
        | Some (slicing, key) ->
          locked t (fun () ->
              List.map
                (fun msg -> Value.Node (message_node_unlocked t msg))
                (Qm.slice_messages t.qm ~slicing ~key ())));
    h_slicekey =
      (fun () ->
        match slice_ctx with
        | None -> Context.eval_error "qs:slicekey() outside a slicing rule"
        | Some (slicing, _) -> (
          match locked t (fun () -> Qm.find_slicing t.qm slicing) with
          | None -> []
          | Some sdef -> (
            match Message.property m sdef.Defs.slice_property with
            | Some a -> [ Value.Atom a ]
            | None -> [])));
    h_collection = (fun name -> locked t (fun () -> collection_value_unlocked t name));
    h_now = (fun () -> Clock.now t.clk);
  }

(* ---- scheduling hook ---- *)

let queue_priority t name =
  match Qm.find_queue t.qm name with Some q -> q.Defs.priority | None -> 0

(* The element-name synopsis condition pre-filtering admits rules on,
   when it is available without a decode: from the body tree if that is
   already materialized, else from a binary payload's header. *)
let synopsis (m : Message.t) =
  if Message.body_forced m then Some (Prefilter.element_names (Message.body m))
  else Prefilter.payload_names (Message.raw m)

(* Footprint-driven conflict resources: the message claims only the
   resources of the rules it can actually trigger (the per-rule conflict
   templates the compiler cached on the plan, admission-filtered against
   the payload synopsis when one is available without decoding), so two
   same-queue messages with disjoint footprints run concurrently.
   Per-queue arrival ORDER is then preserved only between messages whose
   resource sets overlap — the relaxation this mode trades for dispatch
   width. Membership slice resources are always claimed (slice rules read
   their whole slice), and a ⊤ footprint (dynamically computed queue name)
   expands to every declared queue. Never forces a body decode: a text
   payload falls back to the plan's whole conflict union. *)
let footprint_resources t (m : Message.t) =
  let resources = ref [] in
  let top = ref false in
  let add rs =
    List.iter
      (fun r -> if not (List.mem r !resources) then resources := r :: !resources)
      rs
  in
  let add_conflict = function
    | Compiler.Conflict_top -> top := true
    | Compiler.Conflict_resources { res; own_queue } ->
      add res;
      if own_queue then add [ "q:" ^ m.Message.queue ]
  in
  (match Compiler.plan_for t.compiled m.Message.queue with
   | None -> ()
   | Some plan -> (
     match synopsis m with
     | None -> add_conflict plan.Compiler.conflict_union
     | Some names ->
       Array.iter
         (fun (requirements, conflict) ->
           if Prefilter.may_match ~requirements ~names then add_conflict conflict)
         plan.Compiler.conflicts));
  List.iter
    (fun (mem : Message.membership) ->
      add [ Printf.sprintf "s:%s/%s" mem.Message.m_slicing mem.Message.m_key ];
      match Compiler.plan_for t.compiled mem.Message.m_slicing with
      | None -> ()
      | Some plan -> add_conflict plan.Compiler.conflict_union)
    m.Message.memberships;
  if !top then add (Compiler.all_queue_resources t.compiled);
  List.rev !resources

(* The conflict resources the dispatcher partitions on. Default: always
   the queue (per-queue arrival order must survive parallelism), plus the
   slice memberships: the partition is slice-granularity locking (§4.3),
   two messages of one slice never run together. The per-queue resource
   string is the one the compiler interned on the plan, so dispatch never
   rebuilds it per message. Under [footprint_dispatch] the partition
   narrows to the admitted rules' static footprints. *)
let resources_for t (m : Message.t) =
  if t.cfg.footprint_dispatch then footprint_resources t m
  else
    let queue_res =
      match Compiler.plan_for t.compiled m.Message.queue with
      | Some plan -> plan.Compiler.queue_resource
      | None -> "q:" ^ m.Message.queue
    in
    queue_res
    :: List.map
         (fun (mem : Message.membership) ->
           Printf.sprintf "s:%s/%s" mem.Message.m_slicing mem.Message.m_key)
         m.Message.memberships

let schedule_message t ~priority (m : Message.t) =
  (* queue-wait attribution starts at schedule time; the clock is read
     only when someone will consume the timings *)
  let stamp =
    if Metrics.timing_on t.reg || Trace.enabled t.spans then Metrics.now t.reg
    else -1
  in
  Worker_pool.schedule t.pool ~priority ~resources:(resources_for t m) ~stamp
    m.Message.rid

(* ---- inert messages ---- *)

(* A message no rule can react to: its queue is local or an incoming
   gateway, has no compiled plan, and none of its slice memberships has
   one. Processing it (§3.1) would evaluate nothing and only set its
   processed flag, so the transaction that creates it does that instead
   of a dispatch of its own. Echo and outgoing-gateway messages always
   take their own paths (timer, transmission). *)
let inert t (kind : Defs.kind) (m : Message.t) =
  (match kind with
   | Defs.Basic | Defs.Incoming_gateway -> true
   | Defs.Outgoing_gateway | Defs.Echo -> false)
  && Option.is_none (Compiler.plan_for t.compiled m.Message.queue)
  && List.for_all
       (fun (mem : Message.membership) ->
         Option.is_none (Compiler.plan_for t.compiled mem.Message.m_slicing))
       m.Message.memberships

(* The lifecycle span of a processed message, timed from [start_ns], with
   no phase timed, no activation and a commit; [process] overrides what it
   measured. *)
let span t ~start_ns (m : Message.t) =
  {
    Trace.sp_rid = m.Message.rid;
    sp_queue = m.Message.queue;
    sp_flow = m.Message.prov.Message.p_flow;
    sp_parent = m.Message.prov.Message.p_parent;
    sp_cause = m.Message.prov.Message.p_cause;
    sp_tick = Clock.now t.clk;
    sp_worker = Metrics.shard_index t.reg;
    sp_start_ns = start_ns;
    sp_wait_ns = 0;
    sp_lock_ns = 0;
    sp_decode_ns = 0;
    sp_eval_ns = 0;
    sp_apply_ns = 0;
    sp_barrier_ns = 0;
    sp_activations = [];
    sp_actions = 0;
    sp_batch = t.batch_target;
    sp_outcome = Trace.Committed;
  }

(* Counted like any processed message, and its flow edge observed, but
   only once the creating transaction commits; an abort drops the hook,
   so it leaves no count, no span and no flow node. Its span has no
   wait, lock, eval or apply phase. Runs inside [Store.commit], so under
   [state_mu]. *)
let count_inline t (m : Message.t) =
  note_flow t m;
  t.inline_processed <- t.inline_processed + 1;
  Metrics.incr t.met.m_processed;
  if Trace.enabled t.spans then
    Trace.record t.spans (span t ~start_ns:(Metrics.now t.reg) m)

let process_inline t txn (m : Message.t) =
  Qm.mark_processed t.qm txn m;
  Store.on_commit txn (fun () -> count_inline t m)

(* Run [f] (which commits) and return how many inert messages its commits
   processed inline. Assumes [state_mu] held: every commit happens under
   it, so no other domain's commit lands in between. *)
let counting_inline t f =
  let before = t.inline_processed in
  f ();
  t.inline_processed - before

(* ---- error routing (§3.6); assumes [state_mu] held ---- *)

let rec raise_error t txn ~kind ~description ?rule ?rule_error_queue
    ?provenance ~source_queue ?initial_message () =
  Metrics.incr t.met.m_errors_raised;
  let queue_error_queue =
    match Qm.find_queue t.qm source_queue with
    | Some q -> q.Defs.error_queue
    | None -> None
  in
  let target =
    match rule_error_queue, queue_error_queue, t.cfg.system_error_queue with
    | Some q, _, _ -> Some q
    | None, Some q, _ -> Some q
    | None, None, q -> q
  in
  (* An error raised while already processing the target error queue would
     loop; route it to the system queue, or drop it. *)
  let target =
    if target = Some source_queue then
      if t.cfg.system_error_queue <> Some source_queue then t.cfg.system_error_queue
      else None
    else target
  in
  match target with
  | None ->
    Log.warn (fun f ->
        f "dropping unroutable error (%s in %s): %s"
          (Errors.kind_element kind) source_queue description)
  | Some error_queue ->
    let payload =
      Errors.to_xml ~kind ~description ?rule ~queue:source_queue ?initial_message ()
    in
    enqueue_internal t txn ?rule ?provenance ~trigger:None ~explicit:[]
      ~queue:error_queue ~payload:(Qm.Tree payload) ~origin_queue:source_queue ()

(* Enqueue + schedule + echo-timer registration; failures are routed as
   errors themselves (bounded by the loop protection above). The child's
   provenance defaults to an edge derived from [trigger] (inherit its
   flow, blame [rule]); [provenance] overrides for paths with no trigger
   message in hand (error routing, timer fires). *)
and enqueue_internal t txn ?rule ?rule_error_queue ?(trigger = None) ?provenance
    ~explicit ~queue ~payload ~origin_queue () =
  let provenance =
    match provenance, trigger with
    | Some p, _ -> p
    | None, Some trig ->
      derived_prov ~cause:(Option.value ~default:"" rule) trig
    | None, None -> Message.no_provenance
  in
  match Qm.admit t.qm txn ?rule ?trigger ~provenance ~explicit ~queue ~payload () with
  | Ok (qdef, m) ->
    (* a schema check or a property expression read the bytes' tree *)
    (match payload with
     | Qm.Bxml { bytes; _ } when Message.body_forced m -> count_decode t bytes
     | _ -> ());
    admitted_unlocked t txn ?rule qdef m
  | Error e ->
    let kind =
      match e with
      | Qm.Unknown_queue _ -> Errors.Unknown_queue
      | Qm.Schema_violation _ -> Errors.Schema_violation
      | Qm.Fixed_property_set _ | Qm.Property_error _ -> Errors.Property_error
    in
    let provenance = Option.map (error_prov ?rule) trigger in
    raise_error t txn ~kind ~description:(Qm.error_to_string e) ?rule
      ?rule_error_queue ?provenance ~source_queue:origin_queue
      ~initial_message:
        (match payload with
         | Qm.Tree tree -> tree
         | Qm.Bxml { bytes; tree } ->
           (* decoded once: by the check that failed, or here *)
           count_decode t bytes;
           Lazy.force tree)
      ()

(* What every admitted message goes through: dispatch (or, for an inert
   message, processing inside this transaction), its flow edge once the
   transaction commits, gateway outbox, and the echo timer of an
   echo-queue message. [qdef] is the definition [Qm.admit] resolved for
   the message's queue. Only a dispatched message is cached: its own
   transaction will read it back, while an inert one leaves nothing
   behind but its store record. *)
and admitted_unlocked t txn ?rule (qdef : Defs.queue_def) (m : Message.t) =
  Metrics.incr t.met.m_messages_created;
  if inert t qdef.Defs.kind m then process_inline t txn m
  else begin
    if m.Message.prov.Message.p_flow <> "" then Store.on_commit txn (fun () -> note_flow t m);
    Qm.cache t.qm m;
    schedule_message t ~priority:qdef.Defs.priority m
  end;
  note_outgoing t qdef m;
  if qdef.Defs.kind = Defs.Echo then register_echo_timer t txn ?rule m

and register_echo_timer t txn ?rule (m : Message.t) =
  let timeout =
    match Message.property m "timeout" with
    | Some a -> (
      match Value.cast Value.T_integer a with
      | Ok (Value.Integer n) -> Some n
      | _ -> None)
    | None -> None
  in
  let target =
    Option.map Value.string_of_atomic (Message.property m "target")
  in
  match timeout, target with
  | Some timeout, Some target ->
    Timer_wheel.schedule t.timers ~due:(m.Message.enqueued_at + timeout)
      ~rid:m.Message.rid ~target
  | _ ->
    raise_error t txn ~kind:Errors.Property_error
      ~description:
        "echo queue messages need integer 'timeout' and string 'target' properties"
      ?rule
      ~provenance:(error_prov ?rule m)
      ~source_queue:m.Message.queue ~initial_message:(Message.body m) ()

(* ---- message injection (external arrivals / gateway replies) ---- *)

(* One message's admission in its own transaction; assumes [state_mu]
   held. Per-message transactions keep batch semantics simple: one
   rejected document aborts only itself. *)
let inject_unlocked t ~props ~provenance ~queue payload =
  match
    in_txn t (fun txn ->
        match
          Qm.admit t.qm txn ~provenance ~explicit:props ~queue ~payload:(Qm.Tree payload) ()
        with
        | Ok (qdef, m) ->
          admitted_unlocked t txn qdef m;
          m
        | Error e -> raise (Qm.Queue_error e))
  with
  | m -> Ok m
  | exception Qm.Queue_error e -> Error e

let inject t ?(props = []) ?flow ?(origin = "ingress") ~queue payload =
  locked t (fun () ->
      inject_unlocked t ~props
        ~provenance:(root_prov t ?flow ~origin ())
        ~queue payload)

(* Batch ingress: admit a whole batch under one lock acquisition, so the
   gateway path amortizes locking and encoder scratch warm-up across the
   batch instead of paying them per document. Each document is its own
   cascade root: without an adopted [flow] each mints its own flow id. *)
let inject_many t ?(props = []) ?flow ?(origin = "ingress") ~queue payloads =
  locked t (fun () ->
      List.map
        (fun payload ->
          inject_unlocked t ~props
            ~provenance:(root_prov t ?flow ~origin ())
            ~queue payload)
        payloads)

let admission_stats t =
  ( Metrics.value t.met.m_admission_scans,
    Metrics.value t.met.m_trees_materialized,
    Metrics.value t.met.m_decoded_bytes )

(* ---- rule execution (§3.1) ---- *)

(* Update attribution: which rule produced a pending update (blame for
   §3.6 error routing) and under which slice context it ran (resolves
   [do reset] with no explicit slicing). *)
type attribution = {
  at_rule : string;
  at_error_queue : string option;
  at_slice_ctx : (string * string) option;
}

(* One compiled plan instance pending evaluation for a message.
   [pw_admit] is the per-rule admission verdict, aligned with the plan's
   guarded rules; [prepare] flips entries the condition pre-filter rules
   out. *)
type plan_work = {
  pw_plan : Plan_ir.t;
  pw_slice_ctx : (string * string) option;
  pw_admit : bool array;
}

let plan_works_for t (m : Message.t) =
  let work_of plan ctx =
    {
      pw_plan = plan.Compiler.exec;
      pw_slice_ctx = ctx;
      pw_admit =
        Array.make (List.length plan.Compiler.exec.Plan_ir.p_guarded) true;
    }
  in
  let queue_work =
    match Compiler.plan_for t.compiled m.Message.queue with
    | None -> []
    | Some plan -> [ work_of plan None ]
  in
  let slice_works =
    List.filter_map
      (fun (mem : Message.membership) ->
        if not (Qm.membership_current t.qm m mem) then None
        else
          Option.map
            (fun plan ->
              work_of plan (Some (mem.Message.m_slicing, mem.Message.m_key)))
            (Compiler.plan_for t.compiled mem.Message.m_slicing))
      m.Message.memberships
  in
  queue_work @ slice_works

let apply_updates t txn blamed (m : Message.t) tagged =
  List.iter
    (fun (at, update) ->
      blamed := Some (at.at_rule, at.at_error_queue);
      Option.iter Fault.before_apply t.fault;
      match update with
      | Update.Enqueue { payload; queue; props } ->
        enqueue_internal t txn ~rule:at.at_rule ?rule_error_queue:at.at_error_queue
          ~trigger:(Some m) ~explicit:props ~queue ~payload:(Qm.bxml payload)
          ~origin_queue:m.Message.queue ()
      | Update.Reset { slicing; key } -> (
        let resolved =
          match slicing, key with
          | Some s, Some k -> Some (s, Message.key_string k)
          | Some s, None -> (
            (* explicit slicing, key of the current message *)
            match Qm.find_slicing t.qm s with
            | Some sdef -> (
              match Message.property m sdef.Defs.slice_property with
              | Some a -> Some (s, Message.key_string a)
              | None -> None)
            | None -> None)
          | None, _ -> at.at_slice_ctx
        in
        match resolved with
        | Some (slicing, key) -> Qm.reset_slice t.qm txn ~slicing ~key
        | None ->
          raise_error t txn ~kind:Errors.Evaluation_error
            ~description:"do reset: no slice in scope and none specified"
            ~rule:at.at_rule ?rule_error_queue:at.at_error_queue
            ~provenance:(error_prov ~rule:at.at_rule m)
            ~source_queue:m.Message.queue ~initial_message:(Message.body m) ()))
    tagged

(* Budgeted GC slice for the background maintenance tick: at most
   [budget] deletability checks, cursor-resumed, so the tick never stalls
   the dispatch loop behind a full-store sweep. *)
let run_gc_step t ~budget =
  locked t (fun () -> counted_gc t (List.length (Qm.gc_step t.qm ~budget)))

(* ---- the single-message transaction ---- *)

let message t rid =
  locked t @@ fun () ->
  match Qm.get t.qm rid with
  | Some m ->
    (* force the lazy body decode while we hold the lock *)
    ignore (force_body_unlocked t m);
    Some m
  | None -> None

(* Setup phase, under [state_mu]: fetch the message, open the transaction,
   look up the pertinent rule plans and pre-filter them against the
   message's element-name synopsis. Isolation needs nothing here: the
   dispatcher never runs this message beside one sharing its queue or a
   slice. Binary payloads carry the synopsis in their header, so
   admission is decided on the raw bytes; the body tree is materialized
   only when at least one rule survives the filter — a message every
   pertinent rule prefilters away commits its no-op transaction without
   ever decoding. When tracing is
   on, pre-filtered rules are pushed onto [acts] as skipped activations.
   [now] is the (possibly free-running-zero) phase clock; the returned
   decode time is a sub-interval of the caller's lock phase. *)
let prepare t ~acts ~now ~stamp rid =
  locked t @@ fun () ->
  match Qm.get t.qm rid with
  | None -> None  (* collected before its turn came *)
  | Some m when m.Message.processed -> None  (* rescheduled duplicate *)
  | Some m ->
    (* queue-wait: time from schedule ([stamp], -1 when unstamped) to this
       dispatch; the observation lands only on timed runs, mirroring the
       phase histograms' 1:8 sampling *)
    let wait_ns =
      if stamp < 0 then 0
      else
        let n = now () in
        if n > 0 then max 0 (n - stamp) else 0
    in
    if wait_ns > 0 && Metrics.timing_on t.reg then
      Metrics.observe (wait_hist_for t m.Message.queue) wait_ns;
    let txn = Store.begin_txn t.st in
    let pws = plan_works_for t m in
    let needs_names = List.exists (fun pw -> pw.pw_plan.Plan_ir.p_filtered) pws in
    let message_names =
      if needs_names then
        Some
          (match synopsis m with
           | Some names -> names  (* streaming: header read only *)
           | None -> Prefilter.element_names (force_body_unlocked t m))
      else None
    in
    let skip rule =
      Metrics.incr t.met.m_prefilter_skips;
      if Trace.enabled t.spans then
        acts := { Trace.a_rule = rule; a_updates = 0; a_skipped = true } :: !acts
    in
    Option.iter
      (fun names ->
        List.iter
          (fun pw ->
            List.iteri
              (fun i (g : Plan_ir.guarded) ->
                if
                  not
                    (Prefilter.may_match ~requirements:g.Plan_ir.g_requirements
                       ~names)
                then begin
                  pw.pw_admit.(i) <- false;
                  skip g.Plan_ir.g_name
                end)
              pw.pw_plan.Plan_ir.p_guarded)
          pws)
      message_names;
    let live = List.exists (fun pw -> Array.exists Fun.id pw.pw_admit) pws in
    let decode_ns =
      if not live then begin
        if not (Message.body_forced m) then Metrics.incr t.met.m_admission_scans;
        0
      end
      else begin
        let d0 = now () in
        ignore (message_node_unlocked t m);
        now () - d0
      end
    in
    Some (m, txn, pws, decode_ns, wait_ns)

(* Phase 1: evaluate all pertinent plans against the same snapshot,
   accumulating the pending update list. Runs WITHOUT [state_mu]; the
   host callbacks lock on demand, which is what lets several workers
   evaluate CPU-heavy rules concurrently. Failures are routed inline at
   the failing rule's turn, so a later rule that reads the error queue
   observes the routed error exactly as it would under per-rule
   interpretation. *)
let evaluate t txn blamed ~acts (m : Message.t) pws =
  let fail rule rule_error_queue description =
    locked t (fun () ->
        raise_error t txn ~kind:Errors.Evaluation_error ~description ~rule
          ?rule_error_queue
          ~provenance:(error_prov ~rule m)
          ~source_queue:m.Message.queue ~initial_message:(Message.body m) ())
  in
  List.concat_map
    (fun pw ->
      if not (Array.exists Fun.id pw.pw_admit) then []
      else begin
        let host = host_for t m ~slice_ctx:pw.pw_slice_ctx in
        let env = Context.make ~host () in
        let env =
          { env with Context.item = Some (Value.Node (message_node t m)) }
        in
        let tagged = ref [] in
        Plan_ir.eval
          ~admitted:(fun i _ -> pw.pw_admit.(i))
          ~before:(fun (g : Plan_ir.guarded) ->
            Metrics.incr t.met.m_rule_evaluations;
            blamed := Some (g.Plan_ir.g_name, g.Plan_ir.g_error_queue);
            Option.iter Fault.before_eval t.fault)
          ~emit:(fun (g : Plan_ir.guarded) outcome ->
            match outcome with
            | Plan_ir.Updates updates ->
              if Trace.enabled t.spans then
                acts :=
                  {
                    Trace.a_rule = g.Plan_ir.g_name;
                    a_updates = List.length updates;
                    a_skipped = false;
                  }
                  :: !acts;
              let at =
                {
                  at_rule = g.Plan_ir.g_name;
                  at_error_queue = g.Plan_ir.g_error_queue;
                  at_slice_ctx = pw.pw_slice_ctx;
                }
              in
              tagged := List.fold_left (fun acc u -> (at, u) :: acc) !tagged updates
            | Plan_ir.Failed description ->
              fail g.Plan_ir.g_name g.Plan_ir.g_error_queue description)
          env pw.pw_plan;
        List.rev !tagged
      end)
    pws

let process t ~stamp rid =
  let tracing = Trace.enabled t.spans in
  (* the clock is read only when someone consumes the timings; with
     metrics on (and no tracing) phase latencies are sampled 1-in-8 so
     the common case stays free of clock reads *)
  let timed =
    tracing || (Metrics.timing_on t.reg && Metrics.sampled t.reg)
  in
  let now () = if timed then Metrics.now t.reg else 0 in
  let t_start = now () in
  let acts = ref [] in
  match prepare t ~acts ~now ~stamp rid with
  | None -> 0
  | Some (m, txn, pws, decode_ns, wait_ns) ->
    let t_locked = now () in
    let blamed = ref None in
    let t_evaled = ref t_locked in
    let t_applied = ref t_locked in
    let barrier_ns = ref 0 in
    let actions = ref 0 in
    let outcome = ref Trace.Committed in
    let inline = ref 0 in
    (match
       let tagged = evaluate t txn blamed ~acts m pws in
       t_evaled := now ();
       actions := List.length tagged;
       (* Phase 2, under [state_mu] again: execute the pending actions and
          commit atomically. *)
       locked t (fun () ->
           apply_updates t txn blamed m tagged;
           (* Echo-queue messages stay unprocessed until their timer fires,
              so a restart can re-register the pending timeout (§2.1.3). *)
           if not (Qm.is_echo t.qm m.Message.queue) then
             Qm.mark_processed t.qm txn m;
           inline := counting_inline t (fun () -> Store.commit txn);
           (* counted under [state_mu]: an ingress domain, bound to no
              shard, counts the inert messages it admits on shard 0 *)
           Metrics.incr t.met.m_processed);
       t_applied := now ()
     with
     | () -> ()
     | exception e ->
       (* abort, undoing the changes, and — §3.6 — turn the failure into an
          error message rather than a wedged engine: route it and
          neutralize the trigger in a fresh transaction, then keep going *)
       if !t_evaled = t_locked then t_evaled := now ();
       outcome := Trace.Aborted (exn_description e);
       let b0 = now () in
       locked t (fun () ->
           Metrics.incr t.met.m_txn_aborts;
           Metrics.incr t.met.m_processed;
           Store.abort txn;
           (* earlier transactions of the current batch are committed but
              possibly unsynced; the abort must not widen their exposure *)
           harden t);
       barrier_ns := now () - b0;
       t_applied := now ();
       Log.warn (fun f ->
           f "processing of #%d aborted: %s" m.Message.rid (exn_description e));
       let rule, rule_error_queue =
         match !blamed with
         | Some (r, eq) -> (Some r, eq)
         | None -> (None, None)
       in
       (try
          locked t (fun () ->
              inline :=
                counting_inline t (fun () ->
                    in_txn t (fun txn ->
                        raise_error t txn ~kind:Errors.Evaluation_error
                          ~description:(exn_description e) ?rule
                          ?rule_error_queue ~provenance:(error_prov ?rule m)
                          ~source_queue:m.Message.queue
                          ~initial_message:(Message.body m) ();
                        Qm.mark_processed t.qm txn m)))
        with e2 ->
          Log.err (fun f ->
              f "error routing for #%d failed: %s" m.Message.rid
                (exn_description e2))));
    if timed then begin
      Metrics.observe t.met.m_lock_seconds (t_locked - t_start);
      Metrics.observe t.met.m_decode_seconds decode_ns;
      Metrics.observe t.met.m_eval_seconds (!t_evaled - t_locked);
      Metrics.observe t.met.m_apply_seconds (!t_applied - !t_evaled)
    end;
    if tracing then
      Trace.record t.spans
        {
          (span t ~start_ns:t_start m) with
          sp_wait_ns = wait_ns;
          sp_lock_ns = t_locked - t_start;
          sp_decode_ns = decode_ns;
          sp_eval_ns = !t_evaled - t_locked;
          sp_apply_ns = !t_applied - !t_evaled;
          sp_barrier_ns = !barrier_ns;
          sp_activations = List.rev !acts;
          sp_actions = !actions;
          sp_outcome = !outcome;
        };
    1 + !inline
