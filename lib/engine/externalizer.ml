(* The externalizer: everything that lets effects escape the process —
   gateway transmissions, timer-driven retries, echo-queue firings.

   Two disciplines from the store layer survive intact across the move to
   worker domains:

   - Barrier before every transmission: no send may precede the
     group-commit barrier covering the transaction that created (or
     error-routed) the message, so a crash can never have externalized an
     action it is about to forget (PR 2's exactly-once argument).
   - A failed transmission is not forfeited: a retryable failure re-arms
     through the timer wheel, and only a spent retry budget or a permanent
     failure gives the message up, as an error message. A rid enters an
     outbox once per process (at enqueue, or in deploy recovery), so the
     pump hands each message to the transport once.

   The externalizer runs on the coordinator thread, between drains — the
   worker pool is quiescent while it pumps. Mutations of shared state
   still take [state_mu] (fine-grained, released around [Network.send]:
   an endpoint handler may re-enter the engine via [Executor.inject], as
   the reply path and [Server.expose] handlers do). *)

module E = Executor
module M = Demaq_obs.Metrics
module Value = Demaq_xquery.Value
module Tree = Demaq_xml.Tree
module Qm = Demaq_mq.Queue_manager
module Message = Demaq_mq.Message
module Defs = Demaq_mq.Defs
module Compiler = Demaq_lang.Compiler
module Network = Demaq_net.Network
module Wsdl = Demaq_net.Wsdl

let log = Logs.Src.create "demaq.externalizer" ~doc:"Demaq externalizer"

module Log = (val Logs.src_log log : Logs.LOG)

(* The WSDL port declared on the message's gateway queue, if its interface
   file has been registered. *)
let gateway_port (t : E.t) (qdef : Defs.queue_def) =
  match qdef.Defs.interface, qdef.Defs.port with
  | Some file, Some port_name -> (
    match Hashtbl.find_opt t.E.interfaces file with
    | Some wsdl -> Wsdl.find_port wsdl port_name
    | None -> None)
  | _ -> None

(* The errorqueue declared on the rule that created a message (used to
   route transport-time failures back to their originator, Fig. 10). *)
let creating_rule_route (t : E.t) (m : Message.t) =
  let creating_rule =
    Option.map Value.string_of_atomic (Message.property m Defs.Sysprop.rule)
  in
  let rule_error_queue =
    match creating_rule with
    | None -> None
    | Some rname ->
      List.find_map
        (fun plan ->
          List.find_map
            (fun (r : Compiler.compiled_rule) ->
              if r.cr_name = rname then r.cr_error_queue else None)
            plan.Compiler.rules)
        (Compiler.plans t.E.compiled)
  in
  (creating_rule, rule_error_queue)

let interface_check t (m : Message.t) (qdef : Defs.queue_def) =
  match gateway_port t qdef with
  | None -> Ok ()
  | Some port ->
    let root =
      match Tree.element_name (Message.body m) with
      | Some n -> Demaq_xml.Name.local n
      | None -> ""
    in
    if Wsdl.accepts_input port root then Ok ()
    else
      Error
        (Printf.sprintf
           "message <%s> is not an input of port %s (expected one of: %s)" root
           port.Wsdl.port_name (Wsdl.expected_inputs port))

(* A failed reliable transmission gets [transmit_retries] retries beyond
   its first attempt, re-armed through the timer wheel; retry [n] waits
   [2^(n-1)] virtual-clock ticks. *)
let transmit_retries = 3

let backoff_delay attempt = 1 lsl (attempt - 1)

(* A failure is worth retrying when the condition is plausibly transient: a
   partitioned endpoint can reconnect and a timed-out wire can clear, but
   an unresolvable name stays unresolvable. *)
let retryable_failure = function
  | Network.Disconnected _ | Network.Timeout _ -> true
  | Network.Name_resolution _ -> false

let transmit (t : E.t) ?(attempt = 1) (m : Message.t) (qdef : Defs.queue_def) =
  M.incr t.E.met.E.m_transmissions;
  if attempt > 1 then M.incr t.E.met.E.m_transmit_retries;
  let binding =
    match Hashtbl.find_opt t.E.bindings m.Message.queue with
    | Some b -> b
    | None -> { E.endpoint = m.Message.queue; replies_to = None }
  in
  let endpoint =
    match Message.property m "recipient" with
    | Some a -> Value.string_of_atomic a
    | None -> binding.E.endpoint
  in
  let reliable = List.mem_assoc "WS-ReliableMessaging" qdef.Defs.extensions in
  let dead_letter ~kind ~description =
    E.locked t (fun () ->
        let creating_rule, rule_error_queue = creating_rule_route t m in
        E.in_txn t (fun txn ->
            E.raise_error t txn ~kind ~description ?rule:creating_rule
              ?rule_error_queue
              ~provenance:(E.error_prov ?rule:creating_rule m)
              ~source_queue:m.Message.queue
              ~initial_message:(Message.body m) ()))
  in
  match
    match interface_check t m qdef with
    | Error reason -> `Interface_error reason
    | Ok () -> (
      (* NOT under [state_mu]: the endpoint handler may re-enter the
         engine (an exposed incoming gateway injects right here) *)
      match
        Network.send t.E.net ~reliable ~from_:t.E.cfg.E.node_name ~to_:endpoint
          (Message.body m)
      with
      | result -> `Net result
      | exception e -> `Handler_error (E.exn_description e))
  with
  | `Interface_error description ->
    (* permanent: retrying cannot fix a schema mismatch *)
    dead_letter ~kind:Errors.Interface_violation ~description
  | `Handler_error description ->
    (* the endpoint handler itself blew up; treat as undeliverable rather
       than crash the pump loop *)
    M.incr t.E.met.E.m_dead_letters;
    dead_letter ~kind:Errors.System_error ~description
  | `Net result ->
  match result with
  | Network.Sent replies ->
    (match binding.E.replies_to with
     | Some incoming ->
       (* a reply continues the causal flow of the transmission that
          solicited it, rather than starting a fresh cascade *)
       let flow =
         match m.Message.prov.Message.p_flow with
         | "" -> None
         | f -> Some f
       in
       List.iter
         (fun reply ->
           match
             E.inject t
               ~props:[ (Defs.Sysprop.sender, Value.String endpoint) ]
               ?flow ~origin:"reply" ~queue:incoming reply
           with
           | Ok _ -> ()
           | Error e ->
             E.with_txn t (fun txn ->
                 E.raise_error t txn ~kind:Errors.Schema_violation
                   ~description:(Qm.error_to_string e)
                   ~provenance:(E.error_prov m) ~source_queue:incoming
                   ~initial_message:reply ()))
         replies
     | None -> ())
  | Network.Lost -> ()  (* best-effort send; nobody to tell *)
  | Network.Failed failure ->
    if reliable && retryable_failure failure && attempt <= transmit_retries
    then begin
      (* re-arm through the timer wheel; the message stays unsent and
         unforfeited until the retry budget is spent *)
      let due = Clock.now t.E.clk + backoff_delay attempt in
      Log.debug (fun f ->
          f "transmission of #%d failed (%s); retry %d/%d at t=%d"
            m.Message.rid
            (Network.failure_to_string failure)
            attempt transmit_retries due);
      E.locked t (fun () ->
          Timer_wheel.schedule_retransmit t.E.timers ~due ~rid:m.Message.rid
            ~attempt:(attempt + 1))
    end
    else begin
      if reliable then M.incr t.E.met.E.m_dead_letters;
      dead_letter
        ~kind:(Errors.of_network_failure failure)
        ~description:(Network.failure_to_string failure)
    end

let pump_gateways (t : E.t) =
  let count = ref 0 in
  List.iter
    (fun (qdef : Defs.queue_def) ->
      if qdef.Defs.kind = Defs.Outgoing_gateway then begin
        let continue_ = ref true in
        while !continue_ do
          match
            E.locked t (fun () ->
                let outbox = E.outbox_for t qdef.Defs.qname in
                if Queue.is_empty outbox then None
                else begin
                  match Qm.get t.E.qm (Queue.pop outbox) with
                  | Some m ->
                    ignore (Message.body m);
                    Some (Some m)
                  | None -> Some None
                    (* collected before transmission: nothing to do *)
                end)
          with
          | None -> continue_ := false
          | Some None -> ()
          | Some (Some m) ->
            incr count;
            (* no transmission may precede the barrier covering the
               transaction that created (or error-routed) the message; a
               no-op when nothing is pending *)
            E.harden t;
            transmit t m qdef
        done
      end)
    (Qm.queue_defs t.E.qm);
  !count

let fire_echo (t : E.t) ~rid ~target =
  match E.message t rid with
  | None -> ()
  | Some echo_msg -> (
    M.incr t.E.met.E.m_timers_fired;
    try
      E.with_txn t (fun txn ->
          E.enqueue_internal t txn ~trigger:(Some echo_msg)
            ~provenance:(E.derived_prov ~cause:"timer" echo_msg)
            ~explicit:[] ~queue:target
            ~payload:(Qm.Tree (Message.body echo_msg))
            ~origin_queue:echo_msg.Message.queue ();
          Qm.mark_processed t.E.qm txn echo_msg)
    with e ->
      (* aborted and unlocked by [in_txn]; surface the failure as an error
         message and retire the echo message so it cannot loop *)
      Log.warn (fun f ->
          f "echo timer for #%d aborted: %s" rid (E.exn_description e));
      (try
         E.with_txn t (fun txn ->
             E.raise_error t txn ~kind:Errors.System_error
               ~description:(E.exn_description e)
               ~provenance:(E.error_prov echo_msg)
               ~source_queue:echo_msg.Message.queue
               ~initial_message:(Message.body echo_msg) ();
             Qm.mark_processed t.E.qm txn echo_msg)
       with e2 ->
         Log.err (fun f ->
             f "error routing for echo #%d failed: %s" rid
               (E.exn_description e2))))

let advance_time (t : E.t) ticks =
  Clock.advance t.E.clk ticks;
  let due =
    E.locked t (fun () ->
        Timer_wheel.due_entries t.E.timers)
  in
  List.iter
    (function
      | Timer_wheel.Echo { rid; target } -> fire_echo t ~rid ~target
      | Timer_wheel.Retransmit { rid; attempt } -> (
        match
          E.locked t (fun () ->
              match Qm.get t.E.qm rid with
              | None -> None  (* collected while awaiting retry *)
              | Some m ->
                ignore (Message.body m);
                Option.map
                  (fun qdef -> (m, qdef))
                  (Qm.find_queue t.E.qm m.Message.queue))
        with
        | None -> ()
        | Some (m, qdef) ->
          (* a timer-armed retry externalizes like any transmission *)
          E.harden t;
          transmit t ~attempt m qdef))
    due
