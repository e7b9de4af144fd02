(** The executor: Demaq's single-message transaction (§3.1) behind a
    narrow interface, safe to run from several worker domains.

    {!process} is the paper's iterative cycle — evaluate every pertinent
    rule against a snapshot, collect the pending-action list, apply it in
    one transaction, route failures as error messages (§3.6). A message
    no rule can react to (an inert message: a basic or incoming-gateway
    queue with no plan, in no slicing with one) is not dispatched; the
    transaction that creates it marks it processed, and it is counted at
    that transaction's commit, and leaves no cached record behind. The shared
    engine context {!t} is exposed transparently so the externalizer and
    the composition root can reach its components; the locking contract
    is part of the interface:

    - [state_mu] guards the queue manager, store, outboxes and timers.
      Functions documented "assumes the lock" must only be called from
      within {!locked} (or {!with_txn}); everything else locks
      internally. Rule evaluation inside {!process} runs WITHOUT the
      lock — that is the engine's CPU parallelism — with the qs: host
      callbacks re-acquiring it per call.
    - Per-message state (body, document node) lives on the queue
      manager's cached {!Demaq_mq.Message.t}, is forced only under
      [state_mu], and leaves with the record at retention GC. A message
      is cached when it is scheduled, or when a read (a qs:queue() or
      qs:slice() call, a gateway or timer lookup) builds it from the
      store; an inert message is not cached by its creation.
    - Statistics live in a sharded {!Demaq_obs.Metrics} registry (shard 0
      is the coordinator domain; the worker pool binds worker [i] to
      shard [i+1]); lifecycle spans in a bounded {!Demaq_obs.Trace} ring.
    - Lock order: [state_mu] before the span-ring mutex, the WAL mutex
      and the monitor of [pool] (the worker pool, whose dispatcher
      {!schedule_message} pushes into under [state_mu]), never the
      reverse. *)

module Tree = Demaq_xml.Tree
module Value = Demaq_xquery.Value
module Context = Demaq_xquery.Context
module Store = Demaq_store.Message_store
module Qm = Demaq_mq.Queue_manager
module Message = Demaq_mq.Message
module Defs = Demaq_mq.Defs
module Compiler = Demaq_lang.Compiler
module Network = Demaq_net.Network
module Wsdl = Demaq_net.Wsdl
module Metrics = Demaq_obs.Metrics
module Trace = Demaq_obs.Trace
module Flow = Demaq_obs.Flow

type config = {
  footprint_dispatch : bool;
      (** partition dispatch on the compiled rules' static conflict
          footprints instead of whole queues: same-queue messages whose
          admitted rules touch disjoint resources run concurrently, at
          the cost of per-queue arrival order between them *)
  trace_capacity : int;
  system_error_queue : string option;
  node_name : string;
  batch_size : int;
  group_commit : bool;
  workers : int;
  metrics : bool;
      (** enables the wall-clock/histogram path (phase latencies, fsync
          timing); counters are always live *)
}

type gateway_binding = { endpoint : string; replies_to : string option }

(** The executor's registered instruments; the externalizer and the
    composition root record through these. *)
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
      (** rule admission resolved from the payload synopsis, no tree *)
  m_trees_materialized : Metrics.counter;
      (** stored payloads decoded into body trees *)
  m_decoded_bytes : Metrics.counter;
      (** payload bytes read by those decodes *)
  m_lock_seconds : Metrics.histogram;
  m_decode_seconds : Metrics.histogram;
  m_eval_seconds : Metrics.histogram;
  m_apply_seconds : Metrics.histogram;
  m_barrier_seconds : Metrics.histogram;
}

type t = {
  cfg : config;
  qm : Qm.t;
  st : Store.t;
  net : Network.t;
  mutable compiled : Compiler.t;
  timers : Timer_wheel.t;
  clk : Clock.t;
  state_mu : Mutex.t;
  collection_cache : (string, Value.t) Hashtbl.t;
  bindings : (string, gateway_binding) Hashtbl.t;
  interfaces : (string, Wsdl.t) Hashtbl.t;
  outbox : (string, int Queue.t) Hashtbl.t;
  pool : Worker_pool.t;
      (** the worker domains and the dispatcher they drain, sized by
          [cfg.workers]; {!schedule_message} schedules into it, the
          composition root drains it *)
  mutable batch_target : int;
      (** group-commit batch the coordinator drains per barrier; fixed at
          [cfg.batch_size] unless the adaptive controller is steering it *)
  reg : Metrics.registry;
  met : metrics;
  spans : Trace.t;
  flows : Flow.t;
      (** bounded causal flow store of provenance edges, fed when an
          enqueue's transaction commits; spans stay in [spans] *)
  mutable flow_seq : int;
  wait_hists : (string, Metrics.histogram) Hashtbl.t;
  mutable fault : Fault.t option;
  mutable inline_processed : int;
      (** inert messages processed by their creating transaction, counted
          at its commit; under [state_mu] *)
}

val create :
  cfg:config ->
  qm:Qm.t ->
  st:Store.t ->
  net:Network.t ->
  compiled:Compiler.t ->
  clk:Clock.t ->
  unit ->
  t

val locked : t -> (unit -> 'a) -> 'a
(** Run under [state_mu] (not reentrant). *)

val set_fault : t -> Fault.t option -> unit

val harden : t -> unit
(** Durability barrier ({!Store.barrier}); must precede any externalized
    effect. Called whatever [group_commit] says: it does nothing when no
    commit is pending or under [Sync_always]. *)

val in_txn : t -> (Store.txn -> 'a) -> 'a
(** Commit on return, abort + harden + re-raise on exception. Assumes the
    lock. *)

val with_txn : t -> (Store.txn -> 'a) -> 'a
(** {!locked} + {!in_txn}. *)

val exn_description : exn -> string
val set_collection : t -> string -> Tree.tree list -> unit
val bind_gateway : t -> queue:string -> ?endpoint:string -> ?replies_to:string -> unit -> unit
val register_interface : t -> file:string -> string -> (unit, string) result

val outbox_for : t -> string -> int Queue.t
(** Assumes the lock. *)

val note_outgoing : t -> Defs.queue_def -> Message.t -> unit
(** Puts the message in its queue's outbox when the definition is an
    outgoing gateway. Assumes the lock. *)

val queue_priority : t -> string -> int

val resources_for : t -> Message.t -> string list
(** The conflict resources the dispatcher partitions on: queue plus
    slice memberships, or — under [footprint_dispatch] — the
    admitted rules' static conflict footprints from the compiled plan
    (membership slice resources always included; ⊤ expands to every
    declared queue). *)

val schedule_message : t -> priority:int -> Message.t -> unit
(** {!Worker_pool.schedule} into [pool] at the priority of the message's
    queue, with its {!resources_for} and, when timing or tracing is on, a
    schedule stamp. Safe under the lock: it only takes the pool
    monitor. *)

val raise_error :
  t ->
  Store.txn ->
  kind:Errors.kind ->
  description:string ->
  ?rule:string ->
  ?rule_error_queue:string ->
  ?provenance:Message.provenance ->
  source_queue:string ->
  ?initial_message:Tree.tree ->
  unit ->
  unit
(** §3.6 error routing. Assumes the lock. [provenance] links the routed
    error message into the failing message's causal flow; derive it with
    {!error_prov}. *)

val enqueue_internal :
  t ->
  Store.txn ->
  ?rule:string ->
  ?rule_error_queue:string ->
  ?trigger:Message.t option ->
  ?provenance:Message.provenance ->
  explicit:(string * Value.atomic) list ->
  queue:string ->
  payload:Qm.payload ->
  origin_queue:string ->
  unit ->
  unit
(** Enqueue + cache and schedule (or, for an inert message, processing
    inside [txn], uncached) + echo-timer registration. Assumes the lock.
    Without an explicit [provenance] the child's causal edge derives from
    [trigger]: inherit its flow id, parent = trigger rid, cause = [rule]. *)

val mint_flow : t -> origin:string -> string
(** Fresh node-unique flow id ("<node>-<origin>-<seq>"); deterministic,
    and collision-free across crash-restarts (the sequence is seeded at
    the store's rid high-water mark, {!Store.next_rid}). Assumes the
    lock. *)

val root_prov :
  t -> ?flow:string -> origin:string -> unit -> Message.provenance
(** Provenance for a cascade root: adopt [flow] (e.g. an [X-Demaq-Flow]
    header value) or mint one. Assumes the lock. *)

val derived_prov : cause:string -> Message.t -> Message.provenance
(** Child edge: inherit the causing message's flow, blame [cause]. *)

val error_prov : ?rule:string -> Message.t -> Message.provenance
(** Edge for a §3.6 error message caused by a failure while processing
    [m]; blames [rule], or ["error"] when none is named. *)

val observe_flow :
  t -> rid:int -> queue:string -> tick:int -> Message.provenance -> unit
(** Report a traced message's provenance edge to the flow store, from a
    store record's parts: recovery replay. The enqueue paths report a
    message's edge once its transaction commits. Assumes the lock. *)

val register_echo_timer : t -> Store.txn -> ?rule:string -> Message.t -> unit
(** Assumes the lock. *)

val inject :
  t ->
  ?props:(string * Value.atomic) list ->
  ?flow:string ->
  ?origin:string ->
  queue:string ->
  Tree.tree ->
  (Message.t, Qm.error) result
(** Inject an external arrival in its own transaction (locks itself).
    The message becomes a cascade root: its flow id is [flow] when
    supplied (adopted from the client) or freshly minted; [origin]
    (default ["ingress"]) labels the root's cause. *)

val inject_many :
  t ->
  ?props:(string * Value.atomic) list ->
  ?flow:string ->
  ?origin:string ->
  queue:string ->
  Tree.tree list ->
  (Message.t, Qm.error) result list
(** Batch form of {!inject}: one lock acquisition for the whole batch,
    one transaction per document (a rejected document aborts only
    itself). Results are in input order. Each document is its own
    cascade root; without [flow] each mints its own flow id. *)

val admission_stats : t -> int * int * int
(** [(scans, decodes, decoded_bytes)]: messages whose admission resolved
    from the payload synopsis without materializing a tree, payloads
    decoded into trees, and the bytes those decodes read. *)

val run_gc : t -> int
(** Retention GC (locks itself); returns the number collected. *)

val run_gc_step : t -> budget:int -> int
(** Incremental slice of {!run_gc} for the background maintenance tick:
    at most [budget] deletability checks ({!Demaq_mq.Queue_manager.gc_step}),
    cursor-resumed. *)

val message : t -> int -> Message.t option
(** Fetch a message and force its body parse, under the lock. *)

val process : t -> stamp:int -> int -> int
(** Process one scheduled message end to end in one transaction; returns
    how many messages that processed: the message itself plus every
    inert message its transaction created and processed inline. [0]
    means the rid was skipped (collected, or already processed).
    [stamp] is the dispatch entry's schedule stamp, the start of the
    message's queue wait ([-1]: none). Isolation comes from the
    dispatcher, which never runs it beside a message sharing its queue
    or a slice. Never raises for rule-level failures — those become
    error messages. *)
