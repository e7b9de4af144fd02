(* demaqd: the Demaq server command line.

   demaqd check FILE            parse + static analysis
   demaqd explain FILE          print the compiled execution plans
   demaqd run FILE [options]    deploy and process messages

   In run mode, messages are read from stdin, one per line, in the form

     <queue-name> <xml-document>

   (or bare XML documents with --queue). After the input is drained the
   engine runs to quiescence and prints the contents of every queue. *)

module S = Demaq.Server
module Store = Demaq.Store.Message_store
module Http = Demaq.Net.Http

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ---- logging ----

   The engine's subsystems (demaq.server, demaq.executor,
   demaq.externalizer, demaq.worker_pool, demaq.http) log through [Logs];
   without a reporter those messages go nowhere. [--log-level] (or
   $DEMAQ_LOG) selects the threshold; warnings are on by default so abort
   and dead-letter messages reach stderr. *)

let parse_level s =
  match Logs.level_of_string (String.trim s) with
  | Ok l -> l
  | Error _ ->
    Printf.eprintf "unknown log level %S (try debug|info|warning|error|quiet)\n" s;
    Some Logs.Warning

let setup_logs level_opt =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level
    (match level_opt with
     | Some s -> parse_level s
     | None -> (
       match Sys.getenv_opt "DEMAQ_LOG" with
       | Some s -> parse_level s
       | None -> Some Logs.Warning))

(* ---- stats formatting (shared by `run --stats` and the repl) ---- *)

let print_stats srv =
  let st = S.stats srv in
  Printf.printf
    "processed=%d evals=%d created=%d errors=%d transmissions=%d timers=%d \
     gc=%d prefilter-skips=%d aborts=%d retries=%d dead-letters=%d\n"
    st.S.processed st.S.rule_evaluations st.S.messages_created
    st.S.errors_raised st.S.transmissions st.S.timers_fired st.S.gc_collected
    st.S.prefilter_skips st.S.txn_aborts st.S.transmit_retries
    st.S.dead_letters;
  Printf.printf "durability: group-syncs=%d batch-fill=%.1f syncs/msg=%.3f\n"
    st.S.wal_group_syncs st.S.batch_fill st.S.syncs_per_message;
  Printf.printf "workers: %d\n" (S.workers srv);
  List.iteri
    (fun i (w : Demaq.Engine.Worker_pool.worker_stats) ->
      Printf.printf "  worker %d: processed=%d drains=%d idle-waits=%d\n" i
        w.Demaq.Engine.Worker_pool.w_processed
        w.Demaq.Engine.Worker_pool.w_drains
        w.Demaq.Engine.Worker_pool.w_idle)
    (S.worker_stats srv)

(* ---- metrics endpoint ---- *)

let start_metrics_endpoint srv port =
  match Http.start ~port (Demaq.Engine.Ingress.handler ~enqueue:false srv) with
  | Ok server ->
    Printf.eprintf "metrics endpoint: http://127.0.0.1:%d/metrics\n%!"
      (Http.port server);
    Some server
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    None

(* ---- ingress serving ----

   With --ingress-port the node keeps running after stdin drains: HTTP
   POSTs enqueue through the transactional path (from the accept-pool
   domains) while this loop drains the dispatcher and advances the
   virtual clock in real time so echo-queue timers fire. *)

let serve_stop = ref false

let serve_loop srv ~seconds ~tick_every ~maintenance =
  let previous =
    List.map
      (fun s ->
        (s, Sys.signal s (Sys.Signal_handle (fun _ -> serve_stop := true))))
      [ Sys.sigint; Sys.sigterm ]
  in
  let t_start = Unix.gettimeofday () in
  let deadline =
    if seconds <= 0. then Float.infinity else t_start +. seconds
  in
  let last_tick = ref t_start in
  let last_maint = ref t_start in
  while (not !serve_stop) && Unix.gettimeofday () < deadline do
    let processed = S.run srv in
    (if tick_every > 0. then begin
       let now = Unix.gettimeofday () in
       let due = int_of_float ((now -. !last_tick) /. tick_every) in
       if due > 0 then begin
         S.advance_time srv due;
         last_tick := !last_tick +. (float_of_int due *. tick_every)
       end
     end);
    (* background maintenance (controller tick, incremental GC, log
       compaction) at a fixed cadence: often enough that the controller
       tracks load shifts, rare enough that the GC's store scan never
       dominates the drain *)
    let now = Unix.gettimeofday () in
    if now -. !last_maint >= 0.05 then begin
      maintenance ();
      last_maint := now
    end;
    if processed = 0 then Unix.sleepf 0.001
  done;
  List.iter (fun (s, h) -> Sys.set_signal s h) previous

(* ---- check ---- *)

let check_cmd file =
  match Demaq.Lang.Qdl.parse_program_result (read_file file) with
  | Error msg ->
    Printf.eprintf "parse error: %s\n" msg;
    1
  | Ok program ->
    let result = Demaq.Lang.Analysis.analyze program in
    List.iter
      (fun d -> Format.printf "%a@." Demaq.Lang.Analysis.pp_diagnostic d)
      result.Demaq.Lang.Analysis.diagnostics;
    let q = List.length (Demaq.Lang.Qdl.queues program) in
    let p = List.length (Demaq.Lang.Qdl.properties program) in
    let s = List.length (Demaq.Lang.Qdl.slicings program) in
    let r = List.length (Demaq.Lang.Qdl.rules program) in
    Printf.printf "%s: %d queues, %d properties, %d slicings, %d rules: %s\n" file q p
      s r
      (if result.Demaq.Lang.Analysis.ok then "OK" else "ERRORS");
    if result.Demaq.Lang.Analysis.ok then 0 else 1

(* ---- explain ---- *)

let explain_cmd file =
  match Demaq.Lang.Qdl.parse_program_result (read_file file) with
  | Error msg ->
    Printf.eprintf "parse error: %s\n" msg;
    1
  | Ok program ->
    print_string (Demaq.Lang.Compiler.explain (Demaq.Lang.Compiler.compile program));
    0

(* ---- stdin injection (shared by run, trace and flow) ---- *)

(* One message per stdin line until EOF: [<queue> <xml>], or a bare
   document for [default_queue]. Unparsable and rejected lines are
   reported on stderr and skipped. *)
let inject_stdin srv default_queue =
  let inject queue xml_text =
    match Demaq.xml xml_text with
    | exception Demaq.Xml.Parser.Parse_error { msg; _ } ->
      Printf.eprintf "bad XML (%s): %s\n" msg xml_text
    | payload -> (
      match Demaq.inject srv ~queue payload with
      | Ok _ -> ()
      | Error e ->
        Printf.eprintf "rejected: %s\n" (Demaq.Mq.Queue_manager.error_to_string e))
  in
  try
    while true do
      let line = String.trim (input_line stdin) in
      if line <> "" then
        if line.[0] = '<' then
          match default_queue with
          | Some q -> inject q line
          | None ->
            Printf.eprintf "no target queue: use '<queue> <xml>' lines or --queue\n"
        else
          match String.index_opt line ' ' with
          | Some i ->
            inject (String.sub line 0 i)
              (String.trim (String.sub line i (String.length line - i)))
          | None -> Printf.eprintf "cannot parse input line: %s\n" line
    done
  with End_of_file -> ()

(* The startup run, trace and flow share: deploy [file] (on failure print
   the analysis and exit 1), then hand [k] the node and its drain — feed
   stdin, run to quiescence, and with [advance] > 0 advance the virtual
   clock and run again; the drain returns the first run's processed
   count. [k] calls it once, after any setup the node needs first. *)
let with_node ?store ~config file default_queue advance k =
  match S.deploy ?store ~config (read_file file) with
  | exception S.Deployment_error msg ->
    Printf.eprintf "deployment failed:\n%s\n" msg;
    1
  | srv ->
    k srv (fun () ->
        inject_stdin srv default_queue;
        let processed = S.run srv in
        if advance > 0 then begin
          S.advance_time srv advance;
          ignore (S.run srv)
        end;
        processed)

(* ---- run ---- *)

let run_cmd file default_queue store_dir show_stats stats_json gc_at_end advance
    batch workers metrics_port ingress_port serve_for tick_every adaptive
    gate_pending gate_wal gc_budget compact_wal log_level =
  setup_logs log_level;
  let module Controller = Demaq.Engine.Controller in
  let module Gate = Demaq.Engine.Gate in
  let group_commit = batch > 1 || adaptive in
  let store =
    match store_dir with
    | Some dir ->
      (* group commit: commits append their WAL record immediately, the
         fsync is amortized over the batch (with a byte-size safety
         valve). Under --adaptive the WAL's own record valve opens to the
         controller's ceiling — barriers are driven by the moving batch
         target, not a fixed cap picked at open time. *)
      let sync =
        if group_commit then
          Demaq.Store.Wal.Sync_batch
            {
              max_records =
                (if adaptive then Controller.default_config.Controller.max_batch
                 else batch);
              max_bytes = 1 lsl 20;
            }
        else Demaq.Store.Wal.Sync_always
      in
      Store.open_store (Store.durable_config ~sync dir)
    | None -> Store.open_store Store.default_config
  in
  let config =
    { S.default_config with
      S.batch_size = max 1 batch;
      group_commit;
      workers = max 1 workers;
      (* a scrape target wants latency histograms, not just totals; the
         controller needs the barrier histogram it steers against *)
      metrics = metrics_port <> None || ingress_port <> None || adaptive;
    }
  in
  with_node ~store ~config file default_queue advance (fun srv drain ->
    if adaptive then begin
      let ctl = S.enable_adaptive srv in
      Printf.eprintf "adaptive: group-commit controller armed (batch %d..%d)\n%!"
        (Controller.config ctl).Controller.min_batch
        (Controller.config ctl).Controller.max_batch
    end;
    if gate_pending > 0 || gate_wal > 0 then begin
      let g = Gate.default_config in
      ignore
        (S.enable_gate
           ~cfg:
             { g with
               Gate.max_pending =
                 (if gate_pending > 0 then gate_pending else g.Gate.max_pending);
               max_wal_bytes =
                 (if gate_wal > 0 then gate_wal else g.Gate.max_wal_bytes);
             }
           srv)
    end;
    let endpoint = Option.bind metrics_port (start_metrics_endpoint srv) in
    match
      match ingress_port with
      | None -> Ok None
      | Some port ->
        Result.map Option.some
          (Http.start ~port
             ~gate:(Demaq.Engine.Ingress.gate srv)
             (Demaq.Engine.Ingress.handler srv))
    with
    | Error msg ->
      (* asked to serve but cannot: fail loudly instead of degrading to
         the batch path and exiting 0 without ever serving *)
      Printf.eprintf "%s\n" msg;
      Option.iter Http.stop endpoint;
      Store.close store;
      1
    | Ok ingress ->
    Option.iter
      (fun server ->
        Printf.eprintf "ingress: http://127.0.0.1:%d/enqueue/<queue>\n%!"
          (Http.port server))
      ingress;
    let processed = drain () in
    if ingress <> None then
      serve_loop srv ~seconds:serve_for ~tick_every
        ~maintenance:(fun () ->
          ignore (S.maintain ~gc_budget ~max_wal_bytes:compact_wal srv));
    Printf.printf "processed %d messages\n"
      (if ingress = None then processed else (S.stats srv).S.processed);
    (* serving mode: queues can hold an entire load-test corpus, so the
       per-message dump only runs in the pipe-driven batch mode *)
    if ingress = None then begin
      let qm = S.queue_manager srv in
      List.iter
        (fun (q : Demaq.Mq.Defs.queue_def) ->
          let messages = S.queue_contents srv q.Demaq.Mq.Defs.qname in
          if messages <> [] then begin
            Printf.printf "\nqueue %s (%d):\n" q.Demaq.Mq.Defs.qname
              (List.length messages);
            List.iter
              (fun m ->
                Printf.printf "  %s\n"
                  (Demaq.xml_to_string (Demaq.Message.body m)))
              messages
          end)
        (List.sort compare (Demaq.Mq.Queue_manager.queue_defs qm))
    end;
    if gc_at_end then Printf.printf "\ngc collected %d messages\n" (S.gc srv);
    if show_stats then begin
      print_newline ();
      print_stats srv
    end;
    if stats_json then print_endline (S.stats_json srv);
    Option.iter Http.stop ingress;
    Option.iter Http.stop endpoint;
    Store.close store;
    0)

(* ---- trace: run and dump lifecycle spans as JSONL ---- *)

let trace_cmd file default_queue capacity advance filter_queue filter_rid
    log_level =
  setup_logs log_level;
  let config =
    { S.default_config with S.trace_capacity = max 1 capacity; metrics = true }
  in
  with_node ~config file default_queue advance (fun srv drain ->
      ignore (drain ());
      print_string (S.spans_jsonl ?queue:filter_queue ?rid:filter_rid srv);
      0)

(* ---- flow: render one causal cascade as an ASCII tree ---- *)

let flow_cmd file default_queue id store_dir advance log_level =
  setup_logs log_level;
  let store =
    match store_dir with
    | Some dir ->
      (* reopening a crashed node's store recovers the durable provenance
         triples, so pre-crash hops still appear in the tree (their
         timings are gone with the span ring: they render as "pending") *)
      Store.open_store (Store.durable_config dir)
    | None -> Store.open_store Store.default_config
  in
  let config =
    { S.default_config with S.trace_capacity = 4096; metrics = true }
  in
  with_node ~store ~config file default_queue advance (fun srv drain ->
    ignore (drain ());
    let rc =
      match id with
      | None ->
        (* no id: list the retained flows, most recent first *)
        let summaries = Demaq.Obs.Flow.summaries (S.flow_store srv) in
        if summaries = [] then print_endline "no flows recorded"
        else begin
          Printf.printf "%-32s %6s %8s %12s\n" "FLOW" "NODES" "DROPPED"
            "LAST-TICK";
          List.iter
            (fun (s : Demaq.Obs.Flow.summary) ->
              Printf.printf "%-32s %6d %8d %12d\n" s.Demaq.Obs.Flow.s_flow
                s.Demaq.Obs.Flow.s_nodes s.Demaq.Obs.Flow.s_dropped
                s.Demaq.Obs.Flow.s_last_tick)
            summaries
        end;
        0
      | Some id -> (
        let flow_id =
          match int_of_string_opt id with
          | Some rid -> S.flow_id_of_rid srv rid
          | None -> Some id
        in
        match flow_id with
        | None ->
          Printf.eprintf "no flow recorded for rid %s\n" id;
          1
        | Some fid -> (
          match S.flow_nodes srv fid with
          | [] ->
            Printf.eprintf "unknown flow %s\n" fid;
            1
          | nodes ->
            print_string (Demaq.Obs.Flow.render_ascii fid nodes);
            0))
    in
    Store.close store;
    rc)

(* ---- query ---- *)

let query_cmd expr context_file =
  let context =
    match context_file with
    | Some path -> Some (Demaq.xml (read_file path))
    | None ->
      if Unix.isatty Unix.stdin then None
      else begin
        let buf = Buffer.create 1024 in
        (try
           while true do
             Buffer.add_channel buf stdin 1
           done
         with End_of_file -> ());
        let text = String.trim (Buffer.contents buf) in
        if text = "" then None else Some (Demaq.xml text)
      end
  in
  match Demaq.Xquery.Eval.run ?context expr with
  | value, updates ->
    List.iter
      (fun item ->
        match item with
        | Demaq.Value.Node n -> (
          match Demaq.Tree.node_tree n with
          | Some t -> print_endline (Demaq.xml_to_string t)
          | None -> print_endline (Demaq.Tree.string_value n))
        | Demaq.Value.Atom a -> print_endline (Demaq.Value.string_of_atomic a))
      value;
    List.iter
      (fun u -> Format.printf "pending update: %a@." Demaq.Xquery.Update.pp u)
      updates;
    0
  | exception Demaq.Xquery.Parser.Syntax_error { pos; msg } ->
    Printf.eprintf "syntax error at offset %d: %s
" pos msg;
    1
  | exception Demaq.Xquery.Context.Eval_error msg ->
    Printf.eprintf "evaluation error: %s
" msg;
    1
  | exception Demaq.Xml.Parser.Parse_error { line; col; msg } ->
    Printf.eprintf "XML error at %d:%d: %s
" line col msg;
    1

(* ---- repl ---- *)

let repl_help = {|commands:
  inject <queue> <xml>     deliver a message and run to quiescence
  run                      process pending messages
  step                     process one message
  advance <ticks>          advance the virtual clock (fires echo timers)
  queues                   list queues and their sizes
  show <queue>             print a queue's messages
  gc                       run the retention garbage collector
  evolve <<EOF ... EOF     apply an evolution script (heredoc style)
  explain                  print the compiled plans
  trace                    recent rule activations (needs trace capacity)
  spans [json]             per-message lifecycle spans, newest first
  stats [json]             engine statistics (json: full registry snapshot)
  metrics                  Prometheus exposition of the metrics registry
  help                     this text
  quit                     exit|}

let repl_cmd file log_level =
  setup_logs log_level;
  (* tracing needs timestamps, so the repl runs with metrics on *)
  let config = { S.default_config with S.trace_capacity = 200; metrics = true } in
  match S.deploy ~config (read_file file) with
  | exception S.Deployment_error msg ->
    Printf.eprintf "deployment failed:
%s
" msg;
    1
  | srv ->
    let interactive = Unix.isatty Unix.stdin in
    if interactive then
      Printf.printf "demaqd repl — %s deployed; 'help' for commands
" file;
    let prompt () = if interactive then (print_string "demaq> "; flush stdout) in
    let rec read_heredoc acc =
      match input_line stdin with
      | "EOF" -> String.concat "
" (List.rev acc)
      | line -> read_heredoc (line :: acc)
      | exception End_of_file -> String.concat "
" (List.rev acc)
    in
    let quit = ref false in
    while not !quit do
      prompt ();
      match input_line stdin with
      | exception End_of_file -> quit := true
      | line -> (
        let line = String.trim line in
        let word, rest =
          match String.index_opt line ' ' with
          | Some i ->
            ( String.sub line 0 i,
              String.trim (String.sub line i (String.length line - i)) )
          | None -> (line, "")
        in
        match word with
        | "" -> ()
        | "quit" | "exit" -> quit := true
        | "help" -> print_endline repl_help
        | "inject" -> (
          match String.index_opt rest ' ' with
          | None -> print_endline "usage: inject <queue> <xml>"
          | Some i ->
            let queue = String.sub rest 0 i in
            let body = String.trim (String.sub rest i (String.length rest - i)) in
            (match Demaq.xml body with
             | exception Demaq.Xml.Parser.Parse_error { msg; _ } ->
               Printf.printf "bad XML: %s
" msg
             | payload -> (
               match Demaq.inject srv ~queue payload with
               | Ok m -> Printf.printf "enqueued rid %d; %d processed
"
                           m.Demaq.Message.rid (S.run srv)
               | Error e ->
                 print_endline (Demaq.Mq.Queue_manager.error_to_string e))))
        | "run" -> Printf.printf "%d processed
" (S.run srv)
        | "step" -> (
          match S.step srv with
          | S.Processed m ->
            Printf.printf "processed rid %d from %s
" m.Demaq.Message.rid
              m.Demaq.Message.queue
          | S.Idle -> print_endline "idle")
        | "advance" -> (
          match int_of_string_opt rest with
          | Some n ->
            S.advance_time srv n;
            Printf.printf "clock now %d; %d processed
"
              (Demaq.Engine.Clock.now (S.clock srv))
              (S.run srv)
          | None -> print_endline "usage: advance <ticks>")
        | "queues" ->
          List.iter
            (fun (q : Demaq.Mq.Defs.queue_def) ->
              Printf.printf "  %-20s %-16s %d messages
" q.Demaq.Mq.Defs.qname
                (Demaq.Mq.Defs.kind_to_string q.Demaq.Mq.Defs.kind)
                (List.length (S.queue_contents srv q.Demaq.Mq.Defs.qname)))
            (List.sort compare (Demaq.Mq.Queue_manager.queue_defs (S.queue_manager srv)))
        | "show" ->
          List.iter
            (fun m ->
              Printf.printf "  [%d]%s %s
" m.Demaq.Message.rid
                (if m.Demaq.Message.processed then "*" else " ")
                (Demaq.xml_to_string (Demaq.Message.body m)))
            (S.queue_contents srv rest)
        | "gc" -> Printf.printf "collected %d
" (S.gc srv)
        | "explain" -> print_string (S.explain srv)
        | "evolve" -> (
          let script = if rest = "<<EOF" || rest = "" then read_heredoc [] else rest in
          match S.evolve srv script with
          | Ok () -> print_endline "evolved"
          | Error msg -> Printf.printf "rejected:
%s
" msg)
        | "trace" ->
          (* each retained span's rule activations, newest first *)
          List.iter
            (fun (sp : Demaq.Obs.Trace.span) ->
              List.iter
                (fun (a : Demaq.Obs.Trace.activation) ->
                  Printf.printf "t=%d %s(%s#%d) -> %s\n" sp.sp_tick a.a_rule
                    sp.sp_queue sp.sp_rid
                    (if a.a_skipped then "prefiltered"
                     else Printf.sprintf "%d updates" a.a_updates))
                (List.rev sp.sp_activations))
            (S.spans srv)
        | "spans" ->
          if rest = "json" then print_string (S.spans_jsonl srv)
          else
            List.iter (fun sp -> Format.printf "%a@." S.pp_span sp) (S.spans srv)
        | "stats" ->
          if rest = "json" then print_endline (S.stats_json srv)
          else print_stats srv
        | "metrics" -> print_string (S.exposition srv)
        | other -> Printf.printf "unknown command %S; try 'help'
" other)
    done;
    0

(* ---- loadgen: open-loop HTTP load generation with latency SLOs ---- *)

module Lg = Demaq.Net.Loadgen
module Schema = Demaq.Xml.Schema
module Defs = Demaq.Mq.Defs

(* Named workloads: the ingress queue and the QDL program whose deployed
   schema drives sample-message generation (see Schema.example). *)
let workloads =
  [
    ("order-fanout", ("orders", "examples/order_fanout.demaq"));
    ("etl", ("raw_events", "examples/etl_pipeline.demaq"));
    ("escalation", ("tickets", "examples/escalation.demaq"));
  ]

(* The generation root of a queue schema: a declared element that no other
   declaration references as a child (falling back to the first declared
   name for flat or cyclic schemas). *)
let schema_root schema =
  let names = Schema.declared_names schema in
  let referenced =
    List.concat_map
      (fun n ->
        match Schema.declared schema n with
        | Some (Schema.Sequence ps) ->
          List.map (fun p -> p.Schema.pname) ps
        | _ -> [])
      names
  in
  match List.filter (fun n -> not (List.mem n referenced)) names with
  | root :: _ -> Some root
  | [] -> ( match names with n :: _ -> Some n | [] -> None)

let queue_schema file queue =
  match Demaq.Lang.Qdl.parse_program_result (read_file file) with
  | Error msg ->
    Printf.eprintf "loadgen: cannot parse %s: %s\n" file msg;
    None
  | Ok program ->
    Option.bind
      (List.find_opt
         (fun (q : Defs.queue_def) -> q.Defs.qname = queue)
         (Demaq.Lang.Qdl.queues program))
      (fun q -> q.Defs.schema)

let make_generator ~queue ~program ~flow_prefix =
  let path = "/enqueue/" ^ queue in
  let fallback i =
    Printf.sprintf "<msg><id>%d</id><payload>sample-%d</payload></msg>" i i
  in
  let body_of =
    match program with
    | Some file when Sys.file_exists file -> (
      match Option.bind (queue_schema file queue) (fun schema ->
                Option.map (fun root -> (schema, root)) (schema_root schema))
      with
      | Some (schema, root) ->
        Printf.eprintf "loadgen: generating <%s> messages from %s's schema\n%!"
          root file;
        fun i ->
          (match Schema.example ~vary:i schema root with
           | Some tree -> Demaq.xml_to_string tree
           | None -> fallback i)
      | None ->
        Printf.eprintf
          "loadgen: no usable schema for queue %s in %s; using built-in \
           sample bodies\n%!"
          queue file;
        fallback)
    | Some file ->
      Printf.eprintf "loadgen: program %s not found; using built-in sample \
                      bodies\n%!" file;
      fallback
    | None -> fallback
  in
  let flow_of =
    match flow_prefix with
    | None -> fun _ -> ""
    | Some p -> fun i -> Printf.sprintf "%s-%d" p i
  in
  fun i -> { Lg.sp_path = path; sp_body = body_of i; sp_flow = flow_of i }

let parse_url url =
  let rest =
    if String.length url >= 7 && String.sub url 0 7 = "http://" then
      String.sub url 7 (String.length url - 7)
    else url
  in
  let rest =
    match String.index_opt rest '/' with
    | Some i -> String.sub rest 0 i
    | None -> rest
  in
  match String.index_opt rest ':' with
  | None -> Error (Printf.sprintf "cannot parse url %S: expected host:port" url)
  | Some i -> (
    let host = String.sub rest 0 i in
    let port = String.sub rest (i + 1) (String.length rest - i - 1) in
    match int_of_string_opt port with
    | None -> Error (Printf.sprintf "bad port in url %S" url)
    | Some port -> (
      match
        if host = "" || host = "localhost" then Unix.inet_addr_loopback
        else
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with
      | addr -> Ok (addr, port)
      | exception Not_found ->
        Error (Printf.sprintf "cannot resolve host %S" host)))

let fmt_ms v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v

let loadgen_json ~name ~workload entries =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf
    "{\n\
    \  \"suite\": \"demaq-loadgen\",\n\
    \  \"quick\": false,\n\
    \  \"meta\": {\n\
    \    \"date\": \"%04d-%02d-%02dT%02d:%02d:%02dZ\",\n\
    \    \"ocaml\": \"%s\",\n\
    \    \"cores\": %d,\n\
    \    \"workload\": \"%s\"\n\
    \  },\n\
    \  \"benches\": [\n\
    \    {\"bench\": \"%s\", \"results\": [%s]}\n\
    \  ]\n\
     }\n"
    (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec Sys.ocaml_version
    (Domain.recommended_domain_count ())
    (Demaq.Obs.Trace.json_escape workload) (Demaq.Obs.Trace.json_escape name)
    (String.concat ", " entries)

let result_entry rate (r : Lg.results) =
  Printf.sprintf
    "{\"rate\": %g, \"msg_per_s\": %.1f, \"p50_ms\": %s, \"p99_ms\": %s, \
     \"p999_ms\": %s, \"mean_ms\": %s, \"max_ms\": %s, \"ok\": %d, \
     \"errors\": %d, \"rejected\": %d, \"dropped\": %d, \"timeouts\": %d, \
     \"offered\": %d}"
    rate r.Lg.r_achieved_rate (fmt_ms r.Lg.r_p50_ms) (fmt_ms r.Lg.r_p99_ms)
    (fmt_ms r.Lg.r_p999_ms) (fmt_ms r.Lg.r_mean_ms) (fmt_ms r.Lg.r_max_ms)
    r.Lg.r_ok r.Lg.r_errors r.Lg.r_rejected r.Lg.r_dropped r.Lg.r_timeouts
    r.Lg.r_offered

let loadgen_cmd url rates duration arrival inflight timeout workload queue
    program json_file slo_p99 seed flow_prefix log_level =
  setup_logs log_level;
  let fail msg =
    Printf.eprintf "loadgen: %s\n" msg;
    2
  in
  let named =
    match workload with
    | None -> Ok None
    | Some w -> (
      match List.assoc_opt w workloads with
      | Some (q, p) -> Ok (Some (w, q, p))
      | None ->
        Error
          (Printf.sprintf "unknown workload %S (known: %s)" w
             (String.concat ", " (List.map fst workloads))))
  in
  match named with
  | Error msg -> fail msg
  | Ok named -> (
    let queue, program, wl_name =
      match (named, queue) with
      | Some (w, q, p), override ->
        ( Option.value override ~default:q,
          (match program with Some _ -> program | None -> Some p),
          w )
      | None, Some q -> (q, program, q)
      | None, None -> ("", None, "")
    in
    if queue = "" then
      fail "no target queue: pass --workload or --queue"
    else
      match parse_url url with
      | Error msg -> fail msg
      | Ok (host, port) -> (
        let rates =
          List.filter_map
            (fun s -> float_of_string_opt (String.trim s))
            (String.split_on_char ',' rates)
        in
        if rates = [] then fail "no valid --rate values"
        else begin
          let arrival =
            match arrival with "constant" -> Lg.Constant | _ -> Lg.Poisson
          in
          let gen = make_generator ~queue ~program ~flow_prefix in
          let entries = ref [] in
          let worst_p99 = ref 0. in
          let total_bad = ref 0 in
          List.iter
            (fun rate ->
              let cfg =
                {
                  Lg.host;
                  port;
                  rate;
                  duration;
                  arrival;
                  max_inflight = inflight;
                  timeout_s = timeout;
                  seed;
                }
              in
              Printf.printf
                "== workload %s: %.0f req/s for %.1fs (%s arrivals, cap %d) ==\n%!"
                wl_name rate duration
                (match arrival with
                 | Lg.Constant -> "constant"
                 | Lg.Poisson -> "poisson")
                inflight;
              let r = Lg.run cfg gen in
              print_string (Lg.report r);
              print_newline ();
              entries := !entries @ [ result_entry rate r ];
              if not (Float.is_nan r.Lg.r_p99_ms) then
                worst_p99 := Float.max !worst_p99 r.Lg.r_p99_ms;
              (* 429s are the node's backpressure working as designed, so
                 they never count against the SLO — errors and drops do *)
              total_bad := !total_bad + r.Lg.r_errors + r.Lg.r_dropped)
            rates;
          (match json_file with
           | Some file ->
             let oc = open_out file in
             output_string oc
               (loadgen_json ~name:("loadgen_" ^ wl_name) ~workload:wl_name
                  !entries);
             close_out oc;
             Printf.printf "wrote %s\n" file
           | None -> ());
          match slo_p99 with
          | Some bound
            when !worst_p99 > bound || !total_bad > 0 ->
            Printf.eprintf
              "loadgen: SLO violated (worst p99 %.2f ms vs bound %.2f ms, \
               errors+drops %d)\n"
              !worst_p99 bound !total_bad;
            1
          | _ -> 0
        end))

(* ---- sim: deterministic chaos sweeps and replay ---- *)

module Sim = Demaq.Sim.Sim
module Schedule = Demaq.Sim.Schedule

let sim_cmd seed iters events replay do_shrink blind_tear footprint out =
  match replay with
  | Some file -> (
    match Schedule.of_string (read_file file) with
    | Error e ->
      Printf.eprintf "cannot parse %s: %s\n" file e;
      2
    | Ok sched ->
      let sched =
        if do_shrink then Sim.shrink ~blind_tear ~footprint sched else sched
      in
      let o = Sim.run ~blind_tear ~footprint sched in
      print_string (Sim.report o);
      if o.Sim.violations = [] then 0 else 1)
  | None -> (
    let progress i =
      if i > 0 && i mod 50 = 0 then (
        Printf.eprintf "  ... %d/%d schedules clean\n" i iters;
        flush stderr)
    in
    match Sim.sweep ~blind_tear ~footprint ~events ~progress ~seed ~iters () with
    | Sim.Clean n ->
      Printf.printf "sim: %d schedules (seeds %d..%d, %d events each), all \
                     invariants held\n"
        n seed (seed + n - 1) events;
      0
    | Sim.Failed { seed = bad; outcome; shrunk; shrunk_outcome } ->
      Printf.printf "sim: seed %d violated invariants\n\n" bad;
      print_string (Sim.report outcome);
      Printf.printf "\nshrunk to %d events:\n\n"
        (List.length shrunk.Schedule.events);
      print_string (Sim.report shrunk_outcome);
      let oc = open_out out in
      output_string oc
        (Printf.sprintf "# shrunk counterexample (original seed %d)\n" bad);
      output_string oc (Schedule.to_string shrunk);
      close_out oc;
      Printf.printf "\ncounterexample written to %s\n" out;
      Printf.printf "replay with: demaqd sim --replay %s\n" out;
      1)

(* ---- command line ---- *)

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Demaq program")

let check_t = Term.(const check_cmd $ file_arg)

let explain_t = Term.(const explain_cmd $ file_arg)

let queue_arg =
  Arg.(value & opt (some string) None
       & info [ "q"; "queue" ] ~docv:"QUEUE" ~doc:"Default queue for bare XML input")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"DIR" ~doc:"Durable message store directory")

let stats_arg = Arg.(value & flag & info [ "stats" ] ~doc:"Print engine statistics")

let stats_json_arg =
  Arg.(value & flag
       & info [ "stats-json" ]
           ~doc:"Print the full metrics-registry snapshot as one JSON object")

let gc_arg = Arg.(value & flag & info [ "gc" ] ~doc:"Run the retention GC at the end")

let advance_arg =
  Arg.(value & opt int 0
       & info [ "advance" ] ~docv:"TICKS"
           ~doc:"Advance the virtual clock after the input drains (fires echo timers)")

let batch_arg =
  Arg.(value & opt int 1
       & info [ "batch" ] ~docv:"N"
           ~doc:
             "Process up to N messages per cycle under one group-commit \
              durability barrier (one fsync per batch instead of one per \
              message). With --store, N > 1 opens the WAL in batched-sync \
              mode; 1 (the default) keeps fsync-per-commit.")

let workers_arg =
  Arg.(value & opt int S.default_config.S.workers
       & info [ "workers" ] ~docv:"N"
           ~doc:
             "Worker domains draining the dispatcher. 1 (the default) is \
              the deterministic single-threaded mode; N > 1 processes \
              conflict-free messages (different queues or slices) \
              concurrently. Defaults to \\$DEMAQ_WORKERS when set.")

let metrics_port_arg =
  Arg.(value & opt (some int) None
       & info [ "metrics-port" ] ~docv:"PORT"
           ~doc:
             "Serve /metrics (Prometheus text format), /stats.json and \
              /trace on this loopback port while the node runs (0 picks an \
              ephemeral port, printed to stderr). Also enables phase-latency \
              timing.")

let ingress_port_arg =
  Arg.(value & opt (some int) None
       & info [ "ingress-port" ] ~docv:"PORT"
           ~doc:
             "Serve POST /enqueue/<queue> (XML body, 202 with the rid) plus \
              the observability endpoints on this loopback port, and keep \
              the node running after stdin drains: the serve loop drains \
              the dispatcher continuously and advances the virtual clock \
              in real time (see --tick-every). 0 picks an ephemeral port. \
              Implies phase-latency timing.")

let serve_for_arg =
  Arg.(value & opt float 0.
       & info [ "serve" ] ~docv:"SECS"
           ~doc:
             "With --ingress-port: serve for this many seconds, then shut \
              down cleanly. 0 (the default) serves until SIGINT/SIGTERM.")

let tick_every_arg =
  Arg.(value & opt float 0.1
       & info [ "tick-every" ] ~docv:"SECS"
           ~doc:
             "With --ingress-port: advance the virtual clock one tick per \
              this many wall seconds while serving, so echo-queue timers \
              fire in real time. 0 disables.")

let log_arg =
  Arg.(value & opt (some string) None
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:
             "Log threshold: debug, info, warning, error or quiet. Defaults \
              to \\$DEMAQ_LOG, else warning.")

let adaptive_arg =
  Arg.(value & flag
       & info [ "adaptive" ]
           ~doc:
             "Self-tune the group-commit batch target and flush deadline \
              against the observed batch fill and barrier p99 (AIMD). \
              Implies group commit; --batch sets the starting target.")

let gate_pending_arg =
  Arg.(value & opt int 0
       & info [ "gate-pending" ] ~docv:"N"
           ~doc:
             "Arm the ingress admission gate: shed enqueues with 429 + \
              Retry-After once the dispatch backlog reaches N (0, the \
              default, leaves the gate down unless --gate-wal arms it).")

let gate_wal_arg =
  Arg.(value & opt int 0
       & info [ "gate-wal" ] ~docv:"BYTES"
           ~doc:
             "Admission-gate threshold on unsynced WAL bytes: shed \
              enqueues once the group-commit exposure reaches BYTES \
              (0 disables this axis).")

let gc_budget_arg =
  Arg.(value & opt int 0
       & info [ "gc-budget" ] ~docv:"N"
           ~doc:
             "With --ingress-port: run the incremental retention GC from \
              the serve loop, examining at most N messages per maintenance \
              tick (0, the default, disables background GC).")

let compact_wal_arg =
  Arg.(value & opt int 0
       & info [ "compact-wal" ] ~docv:"BYTES"
           ~doc:
             "With --ingress-port and --store: compact the log (snapshot + \
              WAL truncation, crash-safe) whenever it grows past BYTES \
              since the last checkpoint (0 disables).")

let run_t =
  Term.(const run_cmd $ file_arg $ queue_arg $ store_arg $ stats_arg
        $ stats_json_arg $ gc_arg $ advance_arg $ batch_arg $ workers_arg
        $ metrics_port_arg $ ingress_port_arg $ serve_for_arg
        $ tick_every_arg $ adaptive_arg $ gate_pending_arg $ gate_wal_arg
        $ gc_budget_arg $ compact_wal_arg $ log_arg)

(* loadgen *)

let url_arg =
  Arg.(value & opt string "http://127.0.0.1:8080"
       & info [ "url" ] ~docv:"URL"
           ~doc:"Target node, e.g. http://127.0.0.1:8080 (the host:port a \
                 'demaqd run --ingress-port' node listens on)")

let rate_arg =
  Arg.(value & opt string "100"
       & info [ "rate" ] ~docv:"R[,R..]"
           ~doc:
             "Open-loop arrival rate(s) in requests per second. A \
              comma-separated list runs a sweep, one entry per rate, all \
              recorded in the same --json file.")

let duration_arg =
  Arg.(value & opt float 10.
       & info [ "duration" ] ~docv:"SECS" ~doc:"Seconds of arrivals per rate")

let arrival_arg =
  Arg.(value & opt string "poisson"
       & info [ "arrival" ] ~docv:"PROCESS"
           ~doc:"Arrival process: poisson (default) or constant")

let inflight_arg =
  Arg.(value & opt int 256
       & info [ "inflight" ] ~docv:"N"
           ~doc:
             "In-flight cap: an arrival that would exceed it is counted as \
              dropped and skipped, never delayed (no coordinated omission)")

let lg_timeout_arg =
  Arg.(value & opt float 10.
       & info [ "timeout" ] ~docv:"SECS"
           ~doc:"Per-request response deadline; expiry counts as an error")

let workload_arg =
  Arg.(value & opt (some string) None
       & info [ "workload" ] ~docv:"NAME"
           ~doc:
             "Named workload: order-fanout, etl or escalation. Selects the \
              ingress queue and the examples/ program whose queue schema \
              drives sample-message generation.")

let lg_queue_arg =
  Arg.(value & opt (some string) None
       & info [ "queue" ] ~docv:"QUEUE"
           ~doc:"Target queue (overrides the workload's default)")

let program_arg =
  Arg.(value & opt (some string) None
       & info [ "program" ] ~docv:"FILE"
           ~doc:
             "QDL program to read the target queue's schema from for \
              sample-message generation (defaults to the workload's \
              example program)")

let lg_json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:
             "Write machine-readable results (bench/compare.py compatible; \
              one entry per rate, keyed by rate)")

let slo_arg =
  Arg.(value & opt (some float) None
       & info [ "slo-p99" ] ~docv:"MS"
           ~doc:
             "Exit 1 unless every rate's p99 latency is under MS \
              milliseconds with zero errors and zero cap drops")

let lg_seed_arg =
  Arg.(value & opt int 1
       & info [ "seed" ] ~docv:"SEED" ~doc:"Poisson arrival-process seed")

let flow_prefix_arg =
  Arg.(value & opt (some string) None
       & info [ "flow-prefix" ] ~docv:"PREFIX"
           ~doc:
             "Stamp an X-Demaq-Flow: PREFIX-<i> header on the i-th request, \
              so each injected message roots a client-named causal flow \
              (inspect with 'demaqd flow' or GET /flow/PREFIX-<i>)")

let loadgen_t =
  Term.(const loadgen_cmd $ url_arg $ rate_arg $ duration_arg $ arrival_arg
        $ inflight_arg $ lg_timeout_arg $ workload_arg $ lg_queue_arg
        $ program_arg $ lg_json_arg $ slo_arg $ lg_seed_arg $ flow_prefix_arg
        $ log_arg)

let capacity_arg =
  Arg.(value & opt int 1024
       & info [ "capacity" ] ~docv:"N"
           ~doc:"Lifecycle spans retained (oldest evicted first)")

let filter_queue_arg =
  Arg.(value & opt (some string) None
       & info [ "filter-queue" ] ~docv:"QUEUE"
           ~doc:
             "Only print spans of messages in QUEUE (the /trace endpoint's \
              ?queue= parameter)")

let filter_rid_arg =
  Arg.(value & opt (some int) None
       & info [ "rid" ] ~docv:"RID"
           ~doc:
             "Only print spans of message RID (the /trace endpoint's ?rid= \
              parameter)")

let trace_t =
  Term.(const trace_cmd $ file_arg $ queue_arg $ capacity_arg $ advance_arg
        $ filter_queue_arg $ filter_rid_arg $ log_arg)

let flow_id_arg =
  Arg.(value & pos 1 (some string) None
       & info [] ~docv:"ID"
           ~doc:
             "A message rid (all digits; resolved to its flow) or a flow id. \
              Omitted: list the retained flows.")

let flow_t =
  Term.(const flow_cmd $ file_arg $ queue_arg $ flow_id_arg $ store_arg
        $ advance_arg $ log_arg)

let expr_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"EXPR" ~doc:"QML/XQuery expression")

let context_arg =
  Arg.(value & opt (some file) None
       & info [ "context" ] ~docv:"FILE"
           ~doc:"XML document used as the context item (default: stdin)")

let query_t = Term.(const query_cmd $ expr_arg $ context_arg)

let seed_arg =
  Arg.(value & opt int 1
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"First schedule seed; iteration $(i,i) uses SEED+i")

let iters_arg =
  Arg.(value & opt int 100
       & info [ "iters" ] ~docv:"N" ~doc:"Schedules to generate and run")

let events_arg =
  Arg.(value & opt int 40
       & info [ "events" ] ~docv:"K" ~doc:"Events per generated schedule")

let replay_arg =
  Arg.(value & opt (some file) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:
             "Replay a saved schedule artifact instead of sweeping; exits 1 \
              if it still violates an invariant")

let shrink_arg =
  Arg.(value & flag
       & info [ "shrink" ]
           ~doc:"With --replay: shrink the schedule before running it")

let blind_tear_arg =
  Arg.(value & flag
       & info [ "blind-tear" ]
           ~doc:
             "Apply crash tears without capping them at the unsynced WAL \
              tail (self-test mode: manufactures durability violations)")

let out_arg =
  Arg.(value & opt string "sim-counterexample.txt"
       & info [ "out" ] ~docv:"FILE"
           ~doc:"Where a sweep writes the shrunk counterexample")

let footprint_arg =
  Arg.(value & flag
       & info [ "footprint" ]
           ~doc:
             "Run the episodes with conflict-footprint-driven dispatch \
              (footprint_dispatch): messages claim only the resources of \
              the rules they can trigger; all invariants must still hold")

let sim_t =
  Term.(const sim_cmd $ seed_arg $ iters_arg $ events_arg $ replay_arg
        $ shrink_arg $ blind_tear_arg $ footprint_arg $ out_arg)

let cmds =
  [
    Cmd.v (Cmd.info "check" ~doc:"Parse and analyze a Demaq program") check_t;
    Cmd.v (Cmd.info "explain" ~doc:"Print the compiled execution plans") explain_t;
    Cmd.v (Cmd.info "run" ~doc:"Deploy a program and process stdin messages") run_t;
    Cmd.v
      (Cmd.info "trace"
         ~doc:
           "Deploy a program, process stdin messages with lifecycle tracing \
            on, and dump the retained spans as JSONL")
      trace_t;
    Cmd.v
      (Cmd.info "flow"
         ~doc:
           "Deploy a program, process stdin messages, and render one causal \
            cascade (by rid or flow id) as an ASCII tree with per-hop \
            queue-wait and phase timings; with --store, flows recovered \
            from a previous (possibly crashed) run are included")
      flow_t;
    Cmd.v
      (Cmd.info "query" ~doc:"Evaluate a QML expression against an XML document")
      query_t;
    Cmd.v
      (Cmd.info "repl" ~doc:"Deploy a program and drive it interactively")
      Term.(const repl_cmd $ file_arg $ log_arg);
    Cmd.v
      (Cmd.info "loadgen"
         ~doc:
           "Drive a running node's HTTP ingress at an open-loop arrival \
            rate and report end-to-end latency percentiles (p50/p99/p999) \
            against latency SLOs")
      loadgen_t;
    Cmd.v
      (Cmd.info "sim"
         ~doc:
           "Run seeded chaos schedules against the engine in virtual time, \
            checking the exactly-once/order/durability invariants; on \
            failure, shrink to a minimal replayable counterexample")
      sim_t;
  ]

let () =
  let info =
    Cmd.info "demaqd" ~version:"1.0.0"
      ~doc:"Declarative XML message processing (Demaq, CIDR 2007)"
  in
  exit (Cmd.eval' (Cmd.group info cmds))
