(* The Demaq server, as a composition root: parse/analyze/compile the
   program, wire config -> store -> executor -> dispatcher -> worker pool,
   and drive the batched run loop. The actual machinery lives in the
   layers it composes:

   - Executor: the single-message transaction (§3.1) and all shared
     engine state;
   - Externalizer: gateway pump, timers, retries (barrier before every
     transmission);
   - Dispatch: queue-partitioned scheduling (conflict-free parallelism,
     per-queue order);
   - Worker_pool: N domains draining the dispatcher; [workers = 1] is the
     deterministic mode whose observable behaviour matches the seed
     single-threaded engine. *)

module Store = Demaq_store.Message_store
module Qm = Demaq_mq.Queue_manager
module Message = Demaq_mq.Message
module Defs = Demaq_mq.Defs
module Qdl = Demaq_lang.Qdl
module Analysis = Demaq_lang.Analysis
module Compiler = Demaq_lang.Compiler
module Network = Demaq_net.Network
module Metrics = Demaq_obs.Metrics
module Obs_trace = Demaq_obs.Trace
module Flow = Demaq_obs.Flow

let log = Logs.Src.create "demaq.server" ~doc:"Demaq server"

module Log = (val Logs.src_log log : Logs.LOG)

type config = Executor.config = {
  merged_plans : bool;
  footprint_dispatch : bool;
  use_slice_index : bool;
  lock_granularity : [ `Queue | `Slice ];
  use_prefilter : bool;
  trace_capacity : int;
  flow_tracing : bool;
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
}

(* DEMAQ_WORKERS lets a test run or CI job select the worker count without
   threading a flag through every call site (the CI matrix runs the whole
   suite at 1 and 4 workers this way). *)
let default_workers =
  match Sys.getenv_opt "DEMAQ_WORKERS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)
  | None -> 1

let default_config =
  {
    (* the compiled guarded plans are the default execution path; per-rule
       interpretation remains as the reference semantics (benchmark B16
       measures the gap) *)
    merged_plans = true;
    footprint_dispatch = false;
    use_slice_index = true;
    lock_granularity = `Slice;
    use_prefilter = true;
    trace_capacity = 0;
    (* provenance is three small extra-blob fields per message and one
       bounded-store insert; B17 holds the cascade overhead under 5% *)
    flow_tracing = true;
    gc_every = 0;
    system_error_queue = None;
    optimize = true;
    node_name = "demaq-node";
    transmit_retries = 3;
    retry_backoff = 1;
    batch_size = 1;
    group_commit = false;
    workers = default_workers;
    (* counters are always live; [metrics] adds the wall-clock/histogram
       path (phase latencies, fsync timing), so off keeps the default hot
       path free of clock reads *)
    metrics = false;
  }

type trace_entry = Executor.trace_entry = {
  tr_tick : int;
  tr_rule : string;
  tr_trigger : int;
  tr_queue : string;
  tr_updates : int;
  tr_skipped : bool;
}

type stats = {
  processed : int;
  rule_evaluations : int;
  messages_created : int;
  errors_raised : int;
  transmissions : int;
  timers_fired : int;
  gc_collected : int;
  prefilter_skips : int;
  txn_aborts : int;
  transmit_retries : int;
  dead_letters : int;
  wal_group_syncs : int;
  batch_fill : float;
  syncs_per_message : float;
}

(* The self-tuning state, when [enable_adaptive] switched it on: the AIMD
   controller plus the sampler that feeds it windowed observations. *)
type adaptive = {
  a_ctl : Controller.t;
  a_sampler : Controller.sampler;
  a_processed : unit -> int;
  a_group_syncs : unit -> int;
}

type t = {
  ctx : Executor.t;
  pool : Worker_pool.t;
  mutable adaptive : adaptive option;
  mutable gate : Gate.t option;
  mutable compactions : int;
  mutable compacted_bytes : int;
}

exception Deployment_error of string

let queue_manager t = t.ctx.Executor.qm
let store t = t.ctx.Executor.st
let clock t = t.ctx.Executor.clk
let network t = t.ctx.Executor.net
let config t = t.ctx.Executor.cfg
let explain t = Compiler.explain t.ctx.Executor.compiled
let set_fault t fault = Executor.set_fault t.ctx fault
let set_collection t name docs = Executor.set_collection t.ctx name docs
let bind_gateway t = Executor.bind_gateway t.ctx
let register_interface t = Executor.register_interface t.ctx
let inject t ?props ?flow ~queue payload =
  Executor.inject t.ctx ?props ?flow ~queue payload

let inject_batch t ?props ?flow ~queue payloads =
  Executor.inject_many t.ctx ?props ?flow ~queue payloads

let admission_stats t = Executor.admission_stats t.ctx
let pump_gateways t = Externalizer.pump_gateways t.ctx
let advance_time t ticks = Externalizer.advance_time t.ctx ticks
let gc t = Executor.run_gc t.ctx
let trace t = Executor.trace t.ctx
let pp_trace_entry = Executor.pp_trace_entry
let pending_messages t = Worker_pool.pending t.pool
let queue_contents t name = Qm.queue_messages t.ctx.Executor.qm name
let worker_stats t = Worker_pool.worker_stats t.pool
let workers t = Worker_pool.workers t.pool
let set_picker t picker = Worker_pool.set_picker t.pool picker
let timers_pending t = Timer_wheel.pending t.ctx.Executor.timers
let next_timer_due t = Timer_wheel.next_due t.ctx.Executor.timers

(* ---- driving ---- *)

type step_result = Processed of Message.t | Idle

(* budget 1 => the pool drains inline: deterministic, seed scheduler order *)
let step t =
  let picked = ref Idle in
  ignore
    (Worker_pool.drain t.pool ~budget:1
       ~process:(fun rid ->
         let m = Executor.message t.ctx rid in
         let ok = Executor.process t.ctx rid in
         (if ok then match m with Some m -> picked := Processed m | None -> ());
         ok));
  !picked

let run ?(max_steps = max_int) t =
  let processed = ref 0 in
  let continue_ = ref true in
  let reg = t.ctx.Executor.reg in
  let last_harden = ref (Metrics.now reg) in
  (* [max_steps] bounds processed messages only: rescheduled duplicates and
     collected rids are skipped inside the pool without touching the
     budget. *)
  while !continue_ && !processed < max_steps do
    (* drain up to the batch target (across all workers); their commits
       share one durability barrier instead of one fsync each. Read per
       iteration: the adaptive controller moves [batch_target] between
       drains. *)
    let batch_size = max 1 t.ctx.Executor.batch_target in
    let budget = min batch_size (max_steps - !processed) in
    let n =
      Worker_pool.drain t.pool ~budget ~process:(fun rid -> Executor.process t.ctx rid)
    in
    processed := !processed + n;
    (* one barrier covers the whole batch; the pump re-checks it before
       every transmission, so error-routing commits made while pumping are
       hardened before they can externalize. Under the adaptive
       controller a short drain (batch not filled) may defer the barrier
       until the flush deadline — safe, because every externalization
       path hardens for itself; the deferral only trades commit-to-disk
       latency for fewer fsyncs, bounded by the deadline. *)
    let flush_due =
      match t.adaptive with
      | None -> true  (* fixed batch: barrier per drain, the seed behaviour *)
      | Some a ->
        n >= batch_size
        || float_of_int (Metrics.now reg - !last_harden) /. 1e6
           >= Controller.flush_ms a.a_ctl
    in
    if flush_due then begin
      Executor.harden t.ctx;
      last_harden := Metrics.now reg
    end;
    let sent = Externalizer.pump_gateways t.ctx in
    if n = 0 && sent = 0 then continue_ := false
  done;
  !processed

(* ---- adaptive runtime ---- *)

let batch_target t = t.ctx.Executor.batch_target

let enable_adaptive ?cfg t =
  let ctx = t.ctx in
  let ctl = Controller.create ?cfg ~batch:ctx.Executor.batch_target () in
  Controller.instrument ctl ctx.Executor.reg;
  let a_processed () = Metrics.value ctx.Executor.met.Executor.m_processed in
  let a_group_syncs () = Store.wal_group_syncs ctx.Executor.st in
  let a_sampler =
    Controller.sampler ctl
      ~barrier_hist:ctx.Executor.met.Executor.m_barrier_seconds
      ~processed:a_processed ~group_syncs:a_group_syncs
  in
  ctx.Executor.batch_target <- Controller.batch ctl;
  t.adaptive <- Some { a_ctl = ctl; a_sampler; a_processed; a_group_syncs };
  ctl

let controller_tick t =
  match t.adaptive with
  | None -> None
  | Some a ->
    let d =
      Controller.sample_and_tick a.a_sampler ~processed:a.a_processed
        ~group_syncs:a.a_group_syncs
    in
    t.ctx.Executor.batch_target <- Controller.batch a.a_ctl;
    Some d

let enable_gate ?cfg t =
  let g = Gate.create ?cfg () in
  Gate.instrument g t.ctx.Executor.reg;
  t.gate <- Some g;
  g

(* One admission decision for a message bound for [queue]: dispatch depth
   and unsynced WAL bytes are the two unbounded queues overload would
   otherwise grow. Admit-all when no gate is enabled. *)
let admission t ~queue =
  match t.gate with
  | None -> Gate.Admit
  | Some g ->
    Gate.decide g
      ~pending:(Worker_pool.pending t.pool)
      ~unsynced_bytes:(Store.unsynced_bytes t.ctx.Executor.st)
      ~priority:(Executor.queue_priority t.ctx queue)

(* One background maintenance tick, called off the hot path (the serve
   loop, between drains): run the controller, spend a bounded GC budget,
   and compact the log when it has outgrown its bound. Returns
   [(collected, reclaimed_bytes)]. *)
let maintain ?(gc_budget = 0) ?(max_wal_bytes = 0) t =
  ignore (controller_tick t);
  (* straggler flush: [run] defers the group-commit barrier to the flush
     deadline, but an idle drain exits without ever reaching it — when a
     burst stops dead, the unsynced tail would otherwise linger
     indefinitely and hold the WAL axis of the admission gate closed on
     an idle node. The maintenance cadence is the idle-time bound on
     commit-to-disk latency. A direct barrier, not {!Executor.harden}:
     the tail exists under any [Sync_batch] policy (group commit or
     not) and under [Sync_never] (written, not fsynced), and an idle
     flush must not feed the controller's barrier-p99 window a
     trivially fast sample. *)
  if Store.unsynced_bytes t.ctx.Executor.st > 0 then
    ignore (Store.barrier t.ctx.Executor.st);
  let collected =
    if gc_budget > 0 then Executor.run_gc_step t.ctx ~budget:gc_budget else 0
  in
  let reclaimed =
    if
      max_wal_bytes > 0
      && Store.compaction_due t.ctx.Executor.st ~max_wal_bytes
    then begin
      let b = Executor.locked t.ctx (fun () -> Store.compact t.ctx.Executor.st) in
      if b > 0 then begin
        t.compactions <- t.compactions + 1;
        t.compacted_bytes <- t.compacted_bytes + b
      end;
      b
    end
    else 0
  in
  (collected, reclaimed)

(* ---- introspection ---- *)

(* One source of truth: [stats] reads the same registry counters the
   exposition endpoint renders (aggregated across worker shards — exact
   here because the pool is quiescent between drains). *)
let stats t =
  let ctx = t.ctx in
  let met = ctx.Executor.met in
  let st = Store.stats ctx.Executor.st in
  let group_syncs = st.Store.wal_group_syncs in
  let processed = Metrics.value met.Executor.m_processed in
  {
    processed;
    rule_evaluations = Metrics.value met.Executor.m_rule_evaluations;
    messages_created = Metrics.value met.Executor.m_messages_created;
    errors_raised = Metrics.value met.Executor.m_errors_raised;
    transmissions = Metrics.value met.Executor.m_transmissions;
    timers_fired = Metrics.value met.Executor.m_timers_fired;
    gc_collected = Metrics.value met.Executor.m_gc_collected;
    prefilter_skips = Metrics.value met.Executor.m_prefilter_skips;
    txn_aborts = Metrics.value met.Executor.m_txn_aborts;
    transmit_retries = Metrics.value met.Executor.m_transmit_retries;
    dead_letters = Metrics.value met.Executor.m_dead_letters;
    wal_group_syncs = group_syncs;
    batch_fill =
      (if group_syncs > 0 then float_of_int processed /. float_of_int group_syncs
       else 0.);
    syncs_per_message =
      (if processed > 0 then
         float_of_int st.Store.wal_syncs /. float_of_int processed
       else 0.);
  }

(* ---- observability surface ---- *)

let registry t = t.ctx.Executor.reg
let exposition t = Metrics.render t.ctx.Executor.reg

let span_matches ?queue ?rid (s : Obs_trace.span) =
  (match queue with None -> true | Some q -> s.Obs_trace.sp_queue = q)
  && match rid with None -> true | Some r -> s.Obs_trace.sp_rid = r

let spans ?queue ?rid t =
  List.filter (span_matches ?queue ?rid) (Obs_trace.spans t.ctx.Executor.spans)

let spans_jsonl ?queue ?rid t =
  match queue, rid with
  | None, None -> Obs_trace.dump_jsonl t.ctx.Executor.spans
  | _ ->
    let buf = Buffer.create 1024 in
    List.iter
      (fun s ->
        Buffer.add_string buf (Obs_trace.span_json s);
        Buffer.add_char buf '\n')
      (List.rev (spans ?queue ?rid t));
    Buffer.contents buf

let pp_span = Obs_trace.pp_span

(* ---- causal flows ---- *)

let flow_store t = t.ctx.Executor.flows

(* Resolve a rid to its flow id: the in-memory store first, then durable
   provenance (survives both restart and flow-store eviction). *)
let flow_id_of_rid t rid =
  match Flow.flow_of_rid t.ctx.Executor.flows rid with
  | Some f -> Some f
  | None ->
    Executor.locked t.ctx (fun () ->
        match Qm.get t.ctx.Executor.qm rid with
        | Some m when m.Message.prov.Message.p_flow <> "" ->
          Some m.Message.prov.Message.p_flow
        | _ -> None)

(* A flow's nodes, merged from three sources so trees render across
   crash-restart: durable provenance (the store scan — survives
   everything), the bounded flow store (adds messages the GC already
   collected), and the span ring (timings for whatever it still holds). *)
let flow_nodes t flow_id =
  let ctx = t.ctx in
  let by_rid = Hashtbl.create 32 in
  Executor.locked ctx (fun () ->
      List.iter
        (fun (sm : Store.message) ->
          let _, _, prov = Message.decode_extra sm.Store.extra in
          if prov.Message.p_flow = flow_id then
            Hashtbl.replace by_rid sm.Store.rid
              {
                Flow.n_rid = sm.Store.rid;
                n_queue = sm.Store.queue;
                n_flow = flow_id;
                n_parent = prov.Message.p_parent;
                n_cause = prov.Message.p_cause;
                n_span = None;
              })
        (Store.all_messages ctx.Executor.st));
  List.iter
    (fun (n : Flow.node) ->
      match Hashtbl.find_opt by_rid n.Flow.n_rid with
      | Some stored -> stored.Flow.n_span <- n.Flow.n_span
      | None -> Hashtbl.replace by_rid n.Flow.n_rid n)
    (Flow.nodes ctx.Executor.flows flow_id);
  List.iter
    (fun (sp : Obs_trace.span) ->
      if sp.Obs_trace.sp_flow = flow_id then
        match Hashtbl.find_opt by_rid sp.Obs_trace.sp_rid with
        | Some n when n.Flow.n_span = None -> n.Flow.n_span <- Some sp
        | _ -> ())
    (Obs_trace.spans ctx.Executor.spans);
  Hashtbl.fold (fun _ n acc -> n :: acc) by_rid []
  |> List.sort (fun (a : Flow.node) b -> compare a.Flow.n_rid b.Flow.n_rid)

let flow_ascii t flow_id = Flow.render_ascii flow_id (flow_nodes t flow_id)
let flow_json t flow_id = Flow.render_json flow_id (flow_nodes t flow_id)

let flows_json t =
  "["
  ^ String.concat ","
      (List.map Flow.summary_json (Flow.summaries t.ctx.Executor.flows))
  ^ "]"

(* Machine-readable stats: the full registry snapshot (counters, sampled
   gauges, histogram count/sum) plus the derived ratios [stats] computes,
   as one JSON object. *)
let stats_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '{';
  let first = ref true in
  let field name v =
    if not !first then Buffer.add_char buf ',';
    first := false;
    (* labelled metric names embed quotes (worker="0"); escape for JSON *)
    let name = String.concat "\\\"" (String.split_on_char '"' name) in
    Buffer.add_string buf (Printf.sprintf "\"%s\":%s" name v)
  in
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.9g" v
  in
  List.iter
    (fun sample ->
      match sample with
      | Metrics.Counter { name; value; _ } | Metrics.Gauge { name; value; _ } ->
        field name (num value)
      | Metrics.Histogram { name; sum; count; _ } ->
        field (name ^ "_count") (string_of_int count);
        field (name ^ "_sum") (num sum))
    (Metrics.snapshot (registry t));
  let s = stats t in
  field "batch_fill" (num s.batch_fill);
  field "syncs_per_message" (num s.syncs_per_message);
  Buffer.add_char buf '}';
  Buffer.contents buf

let cache_sizes t =
  let ctx = t.ctx in
  Executor.locked ctx (fun () ->
      [
        ("node", Hashtbl.length ctx.Executor.node_cache);
        ("name", Hashtbl.length ctx.Executor.name_cache);
        ("sent", Hashtbl.length ctx.Executor.sent);
        ("outbox",
         Hashtbl.fold (fun _ q n -> n + Queue.length q) ctx.Executor.outbox 0);
      ])

let evolve t src = Evolution.evolve t.ctx src

(* ---- distribution (§2.1.2) ----

   "This also facilitates the distribution of applications over several
   nodes by replacing local queues with pairs of gateway queues that
   connect two sites." [expose] publishes one of this server's incoming
   gateway queues as a named endpoint on the simulated network. *)

let expose t ~name ~queue =
  let ctx = t.ctx in
  match Qm.find_queue ctx.Executor.qm queue with
  | Some { Defs.kind = Defs.Incoming_gateway; _ } ->
    Network.register ctx.Executor.net ~name ~handler:(fun ~sender body ->
        (match
           Executor.inject ctx
             ~props:[ (Defs.Sysprop.sender, Demaq_xquery.Value.String sender) ]
             ~queue body
         with
         | Ok _ -> ()
         | Error e ->
           Executor.with_txn ctx (fun txn ->
               Executor.raise_error ctx txn ~kind:Errors.Schema_violation
                 ~description:(Qm.error_to_string e) ~source_queue:queue
                 ~initial_message:body ()));
        []);
    Ok ()
  | Some _ -> Error (Printf.sprintf "queue %s is not an incoming gateway" queue)
  | None -> Error (Printf.sprintf "unknown queue %s" queue)

(* ---- deployment ---- *)

(* Build identity for demaq_build_info. The commit is stamped by the
   build/CI environment when available; there is no git at runtime. *)
let build_version = "0.9.0"

let build_commit =
  match Sys.getenv_opt "DEMAQ_BUILD_COMMIT" with
  | Some c when c <> "" -> c
  | _ -> "unknown"

let deploy ?(config = default_config) ?time_source ?store:st ?network:net
    ?payload_format program_text =
  let program =
    try Qdl.parse_program program_text
    with Qdl.Qdl_error msg -> raise (Deployment_error msg)
  in
  let analysis = Analysis.analyze program in
  List.iter
    (fun d ->
      match d.Analysis.severity with
      | Analysis.Warning -> Log.warn (fun f -> f "%a" Analysis.pp_diagnostic d)
      | Analysis.Error -> ())
    analysis.Analysis.diagnostics;
  if not analysis.Analysis.ok then
    raise
      (Deployment_error
         (String.concat "\n"
            (List.filter_map
               (fun d ->
                 if d.Analysis.severity = Analysis.Error then
                   Some (Format.asprintf "%a" Analysis.pp_diagnostic d)
                 else None)
               analysis.Analysis.diagnostics)));
  let st = match st with Some s -> s | None -> Store.open_store Store.default_config in
  let clk = Clock.create ?time_source () in
  let qm = Qm.create ~clock:(fun () -> Clock.now clk) ?payload_format st in
  List.iter (Qm.add_queue qm) (Qdl.queues program);
  List.iter (Qm.add_property qm) (Qdl.properties program);
  List.iter (Qm.add_slicing qm) (Qdl.slicings program);
  Qm.rebuild_indexes qm;
  let compiled = Compiler.compile ~optimize:config.optimize program in
  let net = match net with Some n -> n | None -> Network.create () in
  let ctx = Executor.create ~cfg:config ~qm ~st ~net ~compiled ~clk () in
  Store.instrument st ctx.Executor.reg;
  let reg = ctx.Executor.reg in
  Metrics.counter_fn reg "demaq_trace_dropped_total"
    ~help:"Lifecycle spans evicted from the bounded span ring"
    (fun () ->
      float_of_int
        (max 0
           (Obs_trace.total ctx.Executor.spans
           - Obs_trace.capacity ctx.Executor.spans)));
  Metrics.gauge_fn reg
    (Printf.sprintf "demaq_build_info{version=\"%s\",commit=\"%s\"}"
       build_version build_commit)
    ~help:"Build identity; the value is always 1" (fun () -> 1.);
  let started_ns = Metrics.now reg in
  Metrics.gauge_fn reg "demaq_uptime_seconds"
    ~help:"Seconds since this node deployed (virtual under simulation)"
    (fun () -> float_of_int (Metrics.now reg - started_ns) *. 1e-9);
  let pool =
    Worker_pool.create ~registry:ctx.Executor.reg ~workers:config.workers ()
  in
  ctx.Executor.schedule <-
    (fun ~priority ~resources rid -> Worker_pool.schedule pool ~priority ~resources rid);
  let t =
    { ctx; pool; adaptive = None; gate = None; compactions = 0; compacted_bytes = 0 }
  in
  Metrics.counter_fn reg "demaq_store_compactions_total"
    ~help:"Background WAL/snapshot compactions performed" (fun () ->
      float_of_int t.compactions);
  Metrics.counter_fn reg "demaq_store_compacted_bytes_total"
    ~help:"WAL bytes retired by background compaction" (fun () ->
      float_of_int t.compacted_bytes);
  (* Recovery: refill gateway outboxes (retransmission after restart is
     at-least-once, matching WS-ReliableMessaging semantics), resume the
     clock past every stored timestamp, reschedule unprocessed messages,
     and re-register pending echo timeouts. *)
  Executor.locked ctx (fun () ->
      List.iter
        (fun (qdef : Defs.queue_def) ->
          if qdef.Defs.kind = Defs.Outgoing_gateway then
            List.iter (Executor.note_outgoing ctx)
              (Qm.queue_messages qm qdef.Defs.qname))
        (Qm.queue_defs qm));
  let unprocessed = Qm.unprocessed qm in
  (* Resume at the MAXIMUM stored timestamp in one step: list order is
     arrival order, not time order, so folding element-wise assignments
     could land on a stale tick and fire pending echo timers early. *)
  Clock.set clk
    (List.fold_left
       (fun acc (m : Message.t) -> max acc m.Message.enqueued_at)
       0 unprocessed);
  List.iter
    (fun (m : Message.t) ->
      match Qm.find_queue qm m.Message.queue with
      | Some { Defs.kind = Defs.Echo; _ } ->
        Executor.with_txn ctx (fun txn -> Executor.register_echo_timer ctx txn m)
      | _ -> Executor.schedule_message ctx m)
    unprocessed;
  (* Refill the flow store from durable provenance so /flows and the flow
     trees pick up where the crashed process left off (spans are gone —
     those hops render without timings — but the causal edges survive). *)
  if config.flow_tracing then
    Executor.locked ctx (fun () ->
        Store.all_messages st
        |> List.iter (fun (sm : Store.message) ->
               let _, _, prov = Message.decode_extra sm.Store.extra in
               if prov.Message.p_flow <> "" then
                 Flow.observe ctx.Executor.flows ~rid:sm.Store.rid
                   ~queue:sm.Store.queue ~flow:prov.Message.p_flow
                   ~parent:prov.Message.p_parent ~cause:prov.Message.p_cause
                   ~tick:sm.Store.enqueued_at));
  t
