(* The executor: Demaq's single-message transaction (§3.1), extracted from
   the engine monolith so it can run on a pool of worker domains.

   One message's processing is the paper's iterative cycle: evaluate every
   pertinent rule against a snapshot, accumulate the pending-action list,
   apply it atomically, with failures routed as error messages (§3.6). The
   executor owns the shared engine context [t] and makes that cycle safe
   to run concurrently from several domains:

   - [state_mu] guards all shared engine state (queue manager, store,
     caches, outboxes, timers). Functions suffixed [_unlocked] — and the
     whole error-routing family [raise_error]/[enqueue_internal]/
     [register_echo_timer] plus [in_txn] — assume it is HELD; public
     entry points take it.
   - [process] holds the lock only around the setup (fetch, lock
     acquisition, rule-plan lookup) and apply/commit phases. The
     CPU-heavy rule evaluation runs UNLOCKED: message trees are immutable
     once parsed, and the qs: host callbacks re-acquire [state_mu]
     per call. Same-queue and same-slice conflicts cannot run
     concurrently (the dispatcher partitions on exactly the resources
     [resources_for] reports), so a rule's view of its own queue and
     slices is serializable; reads of *other* queues see read-committed
     state, which single-worker mode — the deterministic reference —
     never exercises differently from the seed engine.
   - Statistics live in a sharded [Demaq_obs.Metrics] registry: workers
     mutate their own shard without synchronization, reads aggregate.
     Lifecycle spans go to a bounded [Demaq_obs.Trace] ring with its own
     mutex. Lock order: state_mu -> (span-ring mutex | wal mutex | pool
     monitor); never the reverse. *)

module Tree = Demaq_xml.Tree
module Value = Demaq_xquery.Value
module Ast = Demaq_xquery.Ast
module Eval = Demaq_xquery.Eval
module Context = Demaq_xquery.Context
module Update = Demaq_xquery.Update
module Store = Demaq_store.Message_store
module Lock = Demaq_store.Lock_manager
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
  merged_plans : bool;
  footprint_dispatch : bool;
      (* partition dispatch on the compiled rules' static conflict
         footprints instead of whole queues: same-queue messages whose
         admitted rules touch disjoint resources run concurrently *)
  use_slice_index : bool;
  lock_granularity : [ `Queue | `Slice ];
  use_prefilter : bool;
  trace_capacity : int;
  flow_tracing : bool;
      (* mint/propagate/persist the causal provenance triple (flow id,
         parent rid, causing rule) and feed the bounded flow store; off
         reproduces the pre-flow extra blobs byte for byte *)
  gc_every : int;
  system_error_queue : string option;
  optimize : bool;
  node_name : string;
  transmit_retries : int;
  retry_backoff : int;
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
  m_lock_seconds : Metrics.histogram;  (* setup: fetch + locks + plans *)
  m_decode_seconds : Metrics.histogram;  (* lazy body decode inside setup *)
  m_eval_seconds : Metrics.histogram;  (* unlocked snapshot evaluation *)
  m_apply_seconds : Metrics.histogram;  (* locked apply + commit *)
  m_barrier_seconds : Metrics.histogram;  (* group-commit barriers *)
}

type trace_entry = {
  tr_tick : int;
  tr_rule : string;
  tr_trigger : int;  (* rid of the triggering message *)
  tr_queue : string;
  tr_updates : int;  (* pending updates the evaluation produced *)
  tr_skipped : bool;  (* suppressed by the condition pre-filter *)
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
  node_cache : (int, Tree.node) Hashtbl.t;  (* rid -> body node *)
  name_cache : (int, Prefilter.Names.t) Hashtbl.t;
      (* rid -> element-name synopsis for condition pre-filtering *)
  collection_cache : (string, Value.t) Hashtbl.t;
  bindings : (string, gateway_binding) Hashtbl.t;  (* outgoing queue -> route *)
  interfaces : (string, Wsdl.t) Hashtbl.t;  (* WSDL file name -> parsed model *)
  sent : (int, unit) Hashtbl.t;  (* rids already handed to the transport *)
  outbox : (string, int Queue.t) Hashtbl.t;
      (* untransmitted rids per outgoing gateway queue, so the pump never
         rescans whole queues *)
  mutable schedule : priority:int -> resources:string list -> int -> unit;
      (* set by the composition root to the worker pool's scheduler *)
  mutable batch_target : int;
      (* group-commit batch the coordinator drains per barrier; fixed at
         cfg.batch_size unless the adaptive controller is steering it *)
  reg : Metrics.registry;  (* shard 0 = coordinator, i+1 = worker i *)
  met : metrics;
  spans : Trace.t;  (* per-message lifecycle ring (capacity from cfg) *)
  flows : Flow.t;  (* bounded causal flow store (cascade trees) *)
  mutable flow_seq : int;
      (* next flow-id sequence number; seeded past the store's rid
         high-water mark so ids minted after a crash-restart can never
         collide with flows persisted before it (every mint is followed
         by at least one rid allocation, so used seqs stay <= max rid) *)
  pending_ns : (int, int) Hashtbl.t;
      (* rid -> clock at schedule time, for enqueue->dispatch queue-wait
         attribution; populated only while timing or tracing is on *)
  wait_hists : (string, Metrics.histogram) Hashtbl.t;
      (* per-queue demaq_queue_wait_seconds, registered lazily *)
  mutable fault : Fault.t option;  (* armed fault-injection points *)
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
        ~help:"Transaction setup: fetch, lock acquisition, plan lookup (sampled 1:8 unless tracing)";
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
    node_cache = Hashtbl.create 1024;
    name_cache = Hashtbl.create 1024;
    collection_cache = Hashtbl.create 8;
    bindings = Hashtbl.create 8;
    interfaces = Hashtbl.create 4;
    sent = Hashtbl.create 1024;
    outbox = Hashtbl.create 8;
    schedule = (fun ~priority:_ ~resources:_ _ -> ());
    batch_target = max 1 cfg.batch_size;
    reg;
    met = make_metrics reg;
    spans = Trace.create ~capacity:cfg.trace_capacity;
    flows = Flow.create ();
    flow_seq =
      1
      + Store.fold_messages st
          (fun acc (sm : Store.message) -> max acc sm.Store.rid)
          0;
    pending_ns = Hashtbl.create 256;
    wait_hists = Hashtbl.create 8;
    fault = None;
  }

let locked t f = Mutex.protect t.state_mu f
let set_fault t fault = t.fault <- fault

(* Group commit (§4.1; Gray's "Queues Are Databases"): under
   [Wal.Sync_batch] commits append their log record but defer the fsync;
   [harden] issues the barrier that makes everything logged so far durable.
   The engine must call it before any effect escapes the process — gateway
   transmissions, timer-armed retries — so that no externalized action ever
   references a transaction a crash could still lose. The barrier is
   serialized inside the WAL, so one worker's harden covers every record
   any worker appended before it. *)
let harden t =
  if t.cfg.group_commit then
    if Metrics.timing_on t.reg then begin
      let t0 = Metrics.now t.reg in
      ignore (Store.barrier t.st);
      Metrics.observe t.met.m_barrier_seconds (Metrics.now t.reg - t0)
    end
    else ignore (Store.barrier t.st)

(* Crash safety (§3.1, §3.6): every state change runs inside [in_txn], so
   that an exception anywhere — evaluator bugs, injected faults, broken
   endpoint handlers — aborts the transaction and releases its locks via
   [Store.abort] instead of leaking them. Assumes [state_mu] is held;
   [with_txn] is the self-locking variant. *)
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

let note_outgoing t (m : Message.t) =
  match Qm.find_queue t.qm m.Message.queue with
  | Some { Defs.kind = Defs.Outgoing_gateway; _ } ->
    Queue.push m.Message.rid (outbox_for t m.Message.queue)
  | _ -> ()

(* ---- causal provenance (flow tracing); assumes [state_mu] held ---- *)

let mint_flow t ~origin =
  let seq = t.flow_seq in
  t.flow_seq <- seq + 1;
  Printf.sprintf "%s-%s-%d" t.cfg.node_name origin seq

(* Root provenance for a message entering from outside the cascade:
   adopt the caller-supplied flow id (X-Demaq-Flow) or mint one. *)
let root_prov t ?flow ~origin () =
  if not t.cfg.flow_tracing then Message.no_provenance
  else
    let f =
      match flow with Some f when f <> "" -> f | _ -> mint_flow t ~origin
    in
    { Message.p_flow = f; p_parent = -1; p_cause = origin }

(* Child provenance: inherit the causing message's flow, point the edge at
   it, blame [cause] (the rule, or an origin kind like "timer"/"error"). *)
let derived_prov t ~cause (m : Message.t) =
  if not t.cfg.flow_tracing then Message.no_provenance
  else
    {
      Message.p_flow = m.Message.prov.Message.p_flow;
      p_parent = m.Message.rid;
      p_cause = cause;
    }

(* §3.6: an error message is caused by the message whose processing
   failed; the edge keeps the failing rule's name when one is blamed. *)
let error_prov t ?rule (m : Message.t) =
  if not t.cfg.flow_tracing then None
  else Some (derived_prov t ~cause:(Option.value ~default:"error" rule) m)

let note_flow t (m : Message.t) =
  if t.cfg.flow_tracing && m.Message.prov.Message.p_flow <> "" then
    Flow.observe t.flows ~rid:m.Message.rid ~queue:m.Message.queue
      ~flow:m.Message.prov.Message.p_flow
      ~parent:m.Message.prov.Message.p_parent
      ~cause:m.Message.prov.Message.p_cause ~tick:m.Message.enqueued_at

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
   avoided/performed ratio is observable. Locally enqueued messages are
   born with a forced body and never count. *)
let force_body_unlocked t (m : Message.t) =
  if not (Message.body_forced m) then begin
    Metrics.incr t.met.m_trees_materialized;
    Metrics.add t.met.m_decoded_bytes (String.length (Message.raw m))
  end;
  Message.body m

(* Rules see messages as document nodes (§3.4: qs:message() "returns the
   document node of the currently processed message"); one document per
   message, cached, so node identity and document order are stable across
   qs:queue()/qs:slice() calls. *)
let message_node_unlocked t (m : Message.t) =
  match Hashtbl.find_opt t.node_cache m.Message.rid with
  | Some n -> n
  | None ->
    let n = Eval.doc_node_of_tree (force_body_unlocked t m) in
    Hashtbl.replace t.node_cache m.Message.rid n;
    n

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
                (Qm.slice_messages t.qm ~use_index:t.cfg.use_slice_index
                   ~slicing ~key ())));
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

(* Footprint-driven conflict resources: the message claims only the
   resources of the rules it can actually trigger (the per-rule conflict
   templates the compiler cached on the plan, admission-filtered against
   the payload synopsis when one is available without decoding), so two
   same-queue messages with disjoint footprints run concurrently.
   Per-queue arrival ORDER is then preserved only between messages whose
   resource sets overlap — the relaxation this mode trades for dispatch
   width. Membership slice resources are always claimed (slice rules read
   their whole slice), and a ⊤ footprint (dynamically computed queue name)
   expands to every declared queue. Reads the synopsis cache but never
   populates it and never forces a body decode: a text payload without a
   cached synopsis falls back to the plan's whole conflict union. *)
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
     let names =
       if not t.cfg.use_prefilter then None
       else
         match Hashtbl.find_opt t.name_cache m.Message.rid with
         | Some names -> Some names
         | None ->
           if Message.body_forced m then
             Some (Prefilter.element_names (Message.body m))
           else Prefilter.payload_names (Message.raw m)
     in
     match names with
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
   slice memberships under slice-granularity locking — exactly the
   resources the lock manager would serialize on (§4.3). The per-queue
   resource string is the one the compiler interned on the plan, so
   dispatch never rebuilds it per message. Under [footprint_dispatch] the
   partition narrows to the admitted rules' static footprints. *)
let resources_for t (m : Message.t) =
  if t.cfg.footprint_dispatch then footprint_resources t m
  else
    let queue_res =
      match Compiler.plan_for t.compiled m.Message.queue with
      | Some plan -> plan.Compiler.queue_resource
      | None -> "q:" ^ m.Message.queue
    in
    match t.cfg.lock_granularity with
    | `Queue -> [ queue_res ]
    | `Slice ->
      queue_res
      :: List.map
           (fun (mem : Message.membership) ->
             Printf.sprintf "s:%s/%s" mem.Message.m_slicing mem.Message.m_key)
           m.Message.memberships

let schedule_message t (m : Message.t) =
  (* queue-wait attribution starts at schedule time; only paid for when
     someone will consume the timings *)
  if Metrics.timing_on t.reg || Trace.enabled t.spans then
    Hashtbl.replace t.pending_ns m.Message.rid (Metrics.now t.reg);
  t.schedule
    ~priority:(queue_priority t m.Message.queue)
    ~resources:(resources_for t m) m.Message.rid

(* ---- trace ----

   The rule-activation view, flattened out of the lifecycle spans: every
   span carries its per-rule activations (fired and pre-filtered), so the
   historical [trace_entry] API survives as a projection. Newest first,
   capped at [trace_capacity] entries like the ring it replaced. *)

let trace t =
  let entries =
    List.concat_map
      (fun (s : Trace.span) ->
        (* activations are stored in evaluation order; newest-first means
           reversing them within the span *)
        List.rev_map
          (fun (a : Trace.activation) ->
            {
              tr_tick = s.Trace.sp_tick;
              tr_rule = a.Trace.a_rule;
              tr_trigger = s.Trace.sp_rid;
              tr_queue = s.Trace.sp_queue;
              tr_updates = a.Trace.a_updates;
              tr_skipped = a.Trace.a_skipped;
            })
          s.Trace.sp_activations)
      (Trace.spans t.spans)
  in
  List.filteri (fun i _ -> i < t.cfg.trace_capacity) entries

let pp_trace_entry fmt e =
  Format.fprintf fmt "t=%d %s(%s#%d) -> %s" e.tr_tick e.tr_rule e.tr_queue
    e.tr_trigger
    (if e.tr_skipped then "prefiltered" else Printf.sprintf "%d updates" e.tr_updates)

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
      ~queue:error_queue ~payload ~origin_queue:source_queue ()

(* Enqueue + schedule + echo-timer registration; failures are routed as
   errors themselves (bounded by the loop protection above). The child's
   provenance defaults to an edge derived from [trigger] (inherit its
   flow, blame [rule]); [provenance] overrides for paths with no trigger
   message in hand (error routing, timer fires). *)
and enqueue_internal t txn ?rule ?rule_error_queue ?(trigger = None) ?provenance
    ~explicit ~queue ~payload ~origin_queue () =
  let provenance =
    if not t.cfg.flow_tracing then Message.no_provenance
    else
      match provenance, trigger with
      | Some p, _ -> p
      | None, Some trig ->
        derived_prov t ~cause:(Option.value ~default:"" rule) trig
      | None, None -> Message.no_provenance
  in
  match Qm.enqueue t.qm txn ?rule ?trigger ~provenance ~explicit ~queue ~payload () with
  | Ok m ->
    Metrics.incr t.met.m_messages_created;
    note_flow t m;
    schedule_message t m;
    note_outgoing t m;
    (match Qm.find_queue t.qm queue with
     | Some { Defs.kind = Defs.Echo; _ } -> register_echo_timer t txn ?rule m
     | _ -> ())
  | Error e ->
    let kind =
      match e with
      | Qm.Unknown_queue _ -> Errors.Unknown_queue
      | Qm.Schema_violation _ -> Errors.Schema_violation
      | Qm.Fixed_property_set _ | Qm.Property_error _ -> Errors.Property_error
    in
    let provenance =
      match trigger with Some trig -> error_prov t ?rule trig | None -> None
    in
    raise_error t txn ~kind ~description:(Qm.error_to_string e) ?rule
      ?rule_error_queue ?provenance ~source_queue:origin_queue
      ~initial_message:payload ()

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
      ?provenance:(error_prov t ?rule m)
      ~source_queue:m.Message.queue ~initial_message:(Message.body m) ()

(* ---- message injection (external arrivals / gateway replies) ---- *)

(* One message's admission in its own transaction; assumes [state_mu]
   held. Per-message transactions keep batch semantics simple: one
   rejected document aborts only itself. *)
let inject_unlocked t ~props ~provenance ~queue payload =
  match
    in_txn t (fun txn ->
        match Qm.enqueue t.qm txn ~provenance ~explicit:props ~queue ~payload () with
        | Ok m ->
          Metrics.incr t.met.m_messages_created;
          note_flow t m;
          schedule_message t m;
          note_outgoing t m;
          (match Qm.find_queue t.qm queue with
           | Some { Defs.kind = Defs.Echo; _ } -> register_echo_timer t txn m
           | _ -> ());
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

type eval_unit = {
  eu_rule : string;
  eu_error_queue : string option;
  eu_slice_ctx : (string * string) option;
  eu_body : Ast.expr;
  eu_requirements : string list;
}

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

(* What [prepare] hands to [evaluate]: per-rule interpretation (the
   reference semantics) or the compiler's guarded plans ([merged_plans],
   the default). *)
type work = Units of eval_unit list | Planned of plan_work list

let units_for t (m : Message.t) =
  let queue_units =
    match Compiler.plan_for t.compiled m.Message.queue with
    | None -> []
    | Some plan ->
      List.map
        (fun (r : Compiler.compiled_rule) ->
          { eu_rule = r.cr_name;
            eu_error_queue = r.cr_error_queue;
            eu_slice_ctx = None;
            eu_body = r.cr_body;
            eu_requirements = r.cr_requirements })
        plan.Compiler.rules
  in
  let slice_units =
    List.concat_map
      (fun (mem : Message.membership) ->
        if not (Qm.membership_current t.qm m mem) then []
        else
          match Compiler.plan_for t.compiled mem.Message.m_slicing with
          | None -> []
          | Some plan ->
            let ctx = Some (mem.Message.m_slicing, mem.Message.m_key) in
            List.map
              (fun (r : Compiler.compiled_rule) ->
                { eu_rule = r.cr_name;
                  eu_error_queue = r.cr_error_queue;
                  eu_slice_ctx = ctx;
                  eu_body = r.cr_body;
                  (* slice rules react to slice membership, not only to
                     the triggering message's own content: conditions
                     usually inspect qs:slice(), so no prefiltering *)
                  eu_requirements = [] })
              plan.Compiler.rules)
      m.Message.memberships
  in
  queue_units @ slice_units

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

let work_for t (m : Message.t) =
  if t.cfg.merged_plans then Planned (plan_works_for t m)
  else Units (units_for t m)

let acquire_locks t txn (m : Message.t) =
  let locks = Store.locks t.st in
  let txn_id = Store.txn_id txn in
  let resources =
    match t.cfg.lock_granularity with
    | `Queue -> [ Lock.Queue_lock m.Message.queue ]
    | `Slice ->
      Lock.Message_lock m.Message.rid
      :: List.map
           (fun (mem : Message.membership) ->
             Lock.Slice_lock (mem.Message.m_slicing, mem.Message.m_key))
           m.Message.memberships
  in
  List.iter (fun r -> ignore (Lock.acquire locks ~txn:txn_id r Lock.Exclusive)) resources

let apply_updates t txn blamed (m : Message.t) tagged =
  List.iter
    (fun (at, update) ->
      blamed := Some (at.at_rule, at.at_error_queue);
      Option.iter Fault.before_apply t.fault;
      match update with
      | Update.Enqueue { payload; queue; props } ->
        enqueue_internal t txn ~rule:at.at_rule ?rule_error_queue:at.at_error_queue
          ~trigger:(Some m) ~explicit:props ~queue ~payload
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
            ?provenance:(error_prov t ~rule:at.at_rule m)
            ~source_queue:m.Message.queue ~initial_message:(Message.body m) ()))
    tagged

(* Entries in the per-rid caches must die with their message: the retention
   GC reports what it collected and the engine purges the body/name caches,
   the sent table, and any stale outbox entries (§2.3.3 decouples physical
   cleanup from processing, but the caches must not outlive it). *)
let purge_collected t rids =
  if rids <> [] then begin
    let collected = Hashtbl.create (List.length rids) in
    List.iter
      (fun rid ->
        Hashtbl.replace collected rid ();
        Hashtbl.remove t.node_cache rid;
        Hashtbl.remove t.name_cache rid;
        Hashtbl.remove t.pending_ns rid;
        Hashtbl.remove t.sent rid)
      rids;
    Hashtbl.iter
      (fun _ q ->
        let keep = Queue.create () in
        Queue.iter (fun rid -> if not (Hashtbl.mem collected rid) then Queue.push rid keep) q;
        Queue.clear q;
        Queue.transfer keep q)
      t.outbox
  end

let run_gc_unlocked t =
  let rids = Qm.gc_collect t.qm in
  purge_collected t rids;
  let n = List.length rids in
  Metrics.add t.met.m_gc_collected n;
  n

let run_gc t = locked t (fun () -> run_gc_unlocked t)

(* Budgeted GC slice for the background maintenance tick: at most
   [budget] deletability checks, cursor-resumed, so the tick never stalls
   the dispatch loop behind a full-store sweep. *)
let run_gc_step t ~budget =
  locked t @@ fun () ->
  let rids = Qm.gc_step t.qm ~budget in
  purge_collected t rids;
  let n = List.length rids in
  Metrics.add t.met.m_gc_collected n;
  n

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
   take its 2PL locks, look up the pertinent rule plans and pre-filter
   them against the message's element-name synopsis. Binary payloads
   carry the synopsis in their header, so admission is decided on the
   raw bytes; the body tree is materialized only when at least one rule
   survives the filter — a message every pertinent rule prefilters away
   commits its no-op transaction without ever decoding. When tracing is
   on, pre-filtered rules are pushed onto [acts] as skipped activations.
   [now] is the (possibly free-running-zero) phase clock; the returned
   decode time is a sub-interval of the caller's lock phase. *)
let prepare t ~acts ~now rid =
  locked t @@ fun () ->
  match Qm.get t.qm rid with
  | None -> None  (* collected before its turn came *)
  | Some m when m.Message.processed -> None  (* rescheduled duplicate *)
  | Some m ->
    (* queue-wait: time from schedule to this dispatch. The entry is
       popped unconditionally (it may exist while timing is sampled off);
       the observation lands only on timed runs, mirroring the phase
       histograms' 1:8 sampling. *)
    let wait_ns =
      match Hashtbl.find_opt t.pending_ns rid with
      | None -> 0
      | Some t_sched ->
        Hashtbl.remove t.pending_ns rid;
        let n = now () in
        if n > 0 then max 0 (n - t_sched) else 0
    in
    if wait_ns > 0 && Metrics.timing_on t.reg then
      Metrics.observe (wait_hist_for t m.Message.queue) wait_ns;
    let txn = Store.begin_txn t.st in
    acquire_locks t txn m;
    let work = work_for t m in
    let needs_names =
      match work with
      | Units units -> List.exists (fun eu -> eu.eu_requirements <> []) units
      | Planned pws ->
        List.exists
          (fun pw ->
            List.exists
              (fun (g : Plan_ir.guarded) -> g.Plan_ir.g_requirements <> [])
              pw.pw_plan.Plan_ir.p_guarded)
          pws
    in
    let message_names =
      if t.cfg.use_prefilter && needs_names then
        Some
          (match Hashtbl.find_opt t.name_cache m.Message.rid with
           | Some names -> names
           | None ->
             let names =
               if Message.body_forced m then
                 Prefilter.element_names (Message.body m)
               else
                 match Prefilter.payload_names (Message.raw m) with
                 | Some names -> names  (* streaming: header read only *)
                 | None -> Prefilter.element_names (force_body_unlocked t m)
             in
             Hashtbl.replace t.name_cache m.Message.rid names;
             names)
      else None
    in
    let skip rule =
      Metrics.incr t.met.m_prefilter_skips;
      if Trace.enabled t.spans then
        acts := { Trace.a_rule = rule; a_updates = 0; a_skipped = true } :: !acts
    in
    let work =
      match message_names with
      | None -> work
      | Some names -> (
        match work with
        | Units units ->
          Units
            (List.filter
               (fun eu ->
                 if Prefilter.may_match ~requirements:eu.eu_requirements ~names
                 then true
                 else begin
                   skip eu.eu_rule;
                   false
                 end)
               units)
        | Planned pws ->
          List.iter
            (fun pw ->
              List.iteri
                (fun i (g : Plan_ir.guarded) ->
                  if
                    not
                      (Prefilter.may_match
                         ~requirements:g.Plan_ir.g_requirements ~names)
                  then begin
                    pw.pw_admit.(i) <- false;
                    skip g.Plan_ir.g_name
                  end)
                pw.pw_plan.Plan_ir.p_guarded)
            pws;
          Planned pws)
    in
    let live =
      match work with
      | Units units -> units <> []
      | Planned pws ->
        List.exists (fun pw -> Array.exists Fun.id pw.pw_admit) pws
    in
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
    Some (m, txn, work, decode_ns, wait_ns)

(* Phase 1: evaluate all pertinent rules against the same snapshot,
   accumulating the pending update list. Runs WITHOUT [state_mu]; the
   host callbacks lock on demand, which is what lets several workers
   evaluate CPU-heavy rules concurrently. Both paths report failures
   inline at the failing rule's turn, so a later rule that reads the
   error queue observes the routed error exactly as it would under
   per-rule interpretation. *)
let evaluate t txn blamed ~acts (m : Message.t) work =
  let fail rule rule_error_queue description =
    locked t (fun () ->
        raise_error t txn ~kind:Errors.Evaluation_error ~description ~rule
          ?rule_error_queue
          ?provenance:(error_prov t ~rule m)
          ~source_queue:m.Message.queue ~initial_message:(Message.body m) ())
  in
  match work with
  | Units units ->
    List.concat_map
      (fun eu ->
        Metrics.incr t.met.m_rule_evaluations;
        blamed := Some (eu.eu_rule, eu.eu_error_queue);
        Option.iter Fault.before_eval t.fault;
        let host = host_for t m ~slice_ctx:eu.eu_slice_ctx in
        let env = Context.make ~host () in
        let env =
          { env with Context.item = Some (Value.Node (message_node t m)) }
        in
        match Eval.eval_with_updates env eu.eu_body with
        | _, updates ->
          if Trace.enabled t.spans then
            acts :=
              {
                Trace.a_rule = eu.eu_rule;
                a_updates = List.length updates;
                a_skipped = false;
              }
              :: !acts;
          List.map
            (fun u ->
              ( { at_rule = eu.eu_rule;
                  at_error_queue = eu.eu_error_queue;
                  at_slice_ctx = eu.eu_slice_ctx },
                u ))
            updates
        | exception Context.Eval_error description ->
          fail eu.eu_rule eu.eu_error_queue description;
          [])
      units
  | Planned pws ->
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
                tagged :=
                  List.fold_left (fun acc u -> (at, u) :: acc) !tagged updates
              | Plan_ir.Failed description ->
                fail g.Plan_ir.g_name g.Plan_ir.g_error_queue description)
            env pw.pw_plan;
          List.rev !tagged
        end)
      pws

let process t rid =
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
  match prepare t ~acts ~now rid with
  | None -> false
  | Some (m, txn, work, decode_ns, wait_ns) ->
    let t_locked = now () in
    let blamed = ref None in
    let t_evaled = ref t_locked in
    let t_applied = ref t_locked in
    let barrier_ns = ref 0 in
    let actions = ref 0 in
    let outcome = ref Trace.Committed in
    (match
       let tagged = evaluate t txn blamed ~acts m work in
       t_evaled := now ();
       actions := List.length tagged;
       (* Phase 2, under [state_mu] again: execute the pending actions and
          commit atomically. *)
       locked t (fun () ->
           apply_updates t txn blamed m tagged;
           (* Echo-queue messages stay unprocessed until their timer fires,
              so a restart can re-register the pending timeout (§2.1.3). *)
           let is_echo =
             match Qm.find_queue t.qm m.Message.queue with
             | Some { Defs.kind = Defs.Echo; _ } -> true
             | _ -> false
           in
           if not is_echo then Qm.mark_processed t.qm txn m;
           Store.commit txn);
       t_applied := now ()
     with
     | () -> ()
     | exception e ->
       (* abort, release the locks, and — §3.6 — turn the failure into an
          error message rather than a wedged engine: route it and
          neutralize the trigger in a fresh transaction, then keep going *)
       if !t_evaled = t_locked then t_evaled := now ();
       outcome := Trace.Aborted (exn_description e);
       let b0 = now () in
       locked t (fun () ->
           Metrics.incr t.met.m_txn_aborts;
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
          with_txn t (fun txn ->
              raise_error t txn ~kind:Errors.Evaluation_error
                ~description:(exn_description e) ?rule ?rule_error_queue
                ~source_queue:m.Message.queue
                ~initial_message:(Message.body m) ();
              Qm.mark_processed t.qm txn m)
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
    if tracing then begin
      let span =
        {
          Trace.sp_rid = m.Message.rid;
          sp_queue = m.Message.queue;
          sp_flow = m.Message.prov.Message.p_flow;
          sp_parent = m.Message.prov.Message.p_parent;
          sp_cause = m.Message.prov.Message.p_cause;
          sp_tick = Clock.now t.clk;
          sp_worker = Metrics.shard_index t.reg;
          sp_start_ns = t_start;
          sp_wait_ns = wait_ns;
          sp_lock_ns = t_locked - t_start;
          sp_decode_ns = decode_ns;
          sp_eval_ns = !t_evaled - t_locked;
          sp_apply_ns = !t_applied - !t_evaled;
          sp_barrier_ns = !barrier_ns;
          sp_activations = List.rev !acts;
          sp_actions = !actions;
          sp_batch = t.batch_target;
          sp_outcome = !outcome;
        }
      in
      Trace.record t.spans span;
      if t.cfg.flow_tracing then Flow.attach t.flows span
    end;
    Metrics.incr t.met.m_processed;
    if
      t.cfg.gc_every > 0
      && Metrics.value t.met.m_processed mod t.cfg.gc_every = 0
    then ignore (run_gc t);
    true
