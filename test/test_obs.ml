(* Observability tests: the sharded metrics registry, the Prometheus
   exposition, lifecycle spans, and the scrape endpoint.

   The registry's contract is "exact at quiescence": shards are mutated
   without synchronization by the domain they are bound to, and reads
   aggregate across shards — after every writer has been joined the
   aggregate must equal the sum of everything recorded. The exposition
   and [Server.stats] must both be derivable from the same registry (one
   source of truth), and spans must stay well-formed through aborts and
   crash-restarts. *)

module M = Demaq.Obs.Metrics
module Trace = Demaq.Obs.Trace
module Http = Demaq.Net.Http
module S = Demaq.Server
module Store = Demaq.Store.Message_store
module Wal = Demaq.Store.Wal
module Fault = Demaq.Engine.Fault

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-obs-%s-%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let inject_ok srv queue payload =
  match S.inject srv ~queue (Demaq.xml payload) with
  | Ok m -> m
  | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* ---- registry: sharded counters ---- *)

let test_counter_basics () =
  let reg = M.create ~shards:3 () in
  let c = M.counter reg "demaq_test_total" in
  check int_ "zero" 0 (M.value c);
  M.incr c;
  M.add c 41;
  check int_ "42" 42 (M.value c);
  let d = M.counter reg "demaq_other_total" in
  check int_ "independent" 0 (M.value d)

let test_shard_binding_aggregates () =
  (* four domains, each bound to its own shard, hammer one counter; the
     read-side aggregate must be the exact total once they are joined *)
  let reg = M.create ~shards:5 () in
  let c = M.counter reg "demaq_test_total" in
  let per_domain = 10_000 in
  let doms =
    Array.init 4 (fun i ->
        Domain.spawn (fun () ->
            M.bind_shard reg (i + 1);
            for _ = 1 to per_domain do
              M.incr c
            done))
  in
  Array.iter Domain.join doms;
  M.incr c (* coordinator writes shard 0 *);
  check int_ "sum across shards" ((4 * per_domain) + 1) (M.value c)

let prop_sharded_totals =
  QCheck.Test.make ~name:"registry totals = sum of per-shard increments"
    ~count:30
    QCheck.(
      quad (small_list small_nat) (small_list small_nat)
        (small_list small_nat) (small_list small_nat))
    (fun (a, b, c, d) ->
      let reg = M.create ~shards:5 () in
      let ctr = M.counter reg "demaq_test_total" in
      let h = M.histogram reg "demaq_test_seconds" in
      let parts = [| a; b; c; d |] in
      let doms =
        Array.mapi
          (fun i amounts ->
            Domain.spawn (fun () ->
                M.bind_shard reg (i + 1);
                List.iter
                  (fun n ->
                    M.add ctr n;
                    M.observe h n)
                  amounts))
          parts
      in
      Array.iter Domain.join doms;
      let expected =
        Array.fold_left (fun acc l -> acc + List.fold_left ( + ) 0 l) 0 parts
      in
      let observations = Array.fold_left (fun acc l -> acc + List.length l) 0 parts in
      M.value ctr = expected
      && match M.histogram_totals h with count, _ -> count = observations)

let test_unbound_domain_falls_back_to_shard_zero () =
  let reg = M.create ~shards:2 () in
  let c = M.counter reg "demaq_test_total" in
  let d = Domain.spawn (fun () -> M.incr c (* never bound: shard 0 *)) in
  Domain.join d;
  check int_ "recorded" 1 (M.value c)

let test_histogram_buckets () =
  let reg = M.create ~shards:1 () in
  (* shift -1, scale 1: bucket i covers values up to 2^i *)
  let h = M.histogram reg "demaq_test_records" ~shift:(-1) ~scale:1. in
  List.iter (M.observe h) [ 1; 2; 3; 900 ];
  let count, sum = M.histogram_totals h in
  check int_ "count" 4 count;
  check int_ "sum" 906 sum;
  let sample =
    List.find_map
      (function
        | M.Histogram { name = "demaq_test_records"; buckets; count; sum; _ } ->
          Some (buckets, count, sum)
        | _ -> None)
      (M.snapshot reg)
  in
  match sample with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some (buckets, count, sum) ->
    check int_ "snapshot count" 4 count;
    check bool_ "snapshot sum" true (abs_float (sum -. 906.) < 1e-9);
    (* cumulative, exclusive upper bounds: bucket [b] counts raw < b *)
    let le bound =
      match Array.find_opt (fun (b, _) -> b >= bound) buckets with
      | Some (_, n) -> n
      | None -> Alcotest.fail "bucket missing"
    in
    check int_ "under 1" 0 (le 1.);
    check int_ "under 2" 1 (le 2.);
    check int_ "under 4" 3 (le 4.);
    check int_ "under 1024" 4 (le 1024.)

let test_percentiles () =
  let reg = M.create ~shards:1 () in
  let h = M.histogram reg "demaq_test_records" ~shift:(-1) ~scale:1. in
  check bool_ "empty histogram is nan" true (Float.is_nan (M.percentile h 0.5));
  (* every observation in the (2,4] bucket: any quantile lands inside it *)
  for _ = 1 to 100 do
    M.observe h 3
  done;
  List.iter
    (fun q ->
      let v = M.percentile h q in
      check bool_ (Printf.sprintf "q=%.3f inside bucket" q) true
        (v > 2. && v <= 4.))
    [ 0.1; 0.5; 0.99; 1.0 ];
  (* a spread of observations: quantiles are monotone in q and bracket
     the observed range *)
  let h2 = M.histogram reg "demaq_test_spread" ~shift:(-1) ~scale:1. in
  for v = 1 to 1000 do
    M.observe h2 v
  done;
  let ps = M.percentiles h2 [ 0.5; 0.99; 0.999 ] in
  (match ps with
  | [ p50; p99; p999 ] ->
    check bool_ "monotone" true (p50 <= p99 && p99 <= p999);
    check bool_ "p50 near the middle" true (p50 > 256. && p50 <= 1024.);
    check bool_ "p999 below the top bucket bound" true (p999 <= 1024.)
  | _ -> Alcotest.fail "percentiles arity");
  (* an overflow observation (beyond the last bucket) still yields a
     finite estimate *)
  let h3 = M.histogram reg "demaq_test_over" ~shift:(-1) ~scale:1. in
  M.observe h3 max_int;
  check bool_ "overflow finite" true (Float.is_finite (M.percentile h3 0.99))

let test_timing_gate () =
  (* with timing off, [time] must not observe (and must not read a clock) *)
  let reg = M.create ~timing:false ~shards:1 () in
  let h = M.histogram reg "demaq_test_seconds" in
  check string_ "42" "42" (M.time h (fun () -> "42"));
  check bool_ "no observation" true (M.histogram_totals h = (0, 0));
  M.set_timing reg true;
  ignore (M.time h (fun () -> ()));
  check int_ "observed once enabled" 1 (fst (M.histogram_totals h))

(* ---- exposition / render ---- *)

(* first "<name> <value>" line of the exposition, as an int *)
let scrape_int exposition name =
  let prefix = name ^ " " in
  let lines = String.split_on_char '\n' exposition in
  match
    List.find_opt
      (fun l -> String.length l > String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
      lines
  with
  | None -> Alcotest.failf "metric %s not in exposition" name
  | Some l ->
    let v =
      String.sub l (String.length prefix) (String.length l - String.length prefix)
    in
    int_of_float (float_of_string (String.trim v))

let obs_program = {|
create queue in kind basic mode persistent
create queue out kind basic mode persistent
create queue errs kind basic mode persistent
create rule pong for in errorqueue errs
  if (//ping) then do enqueue <pong>{string(//ping)}</pong> into out
|}

let test_exposition_roundtrip () =
  (* every [Server.stats] counter must be derivable from the exposition:
     the registry is the single source of truth for both *)
  let config = { S.default_config with S.trace_capacity = 16 } in
  let srv = S.deploy ~config obs_program in
  for i = 1 to 5 do
    ignore (inject_ok srv "in" (Printf.sprintf "<ping>%d</ping>" i))
  done;
  ignore (S.run srv);
  let st = S.stats srv in
  let ex = S.exposition srv in
  let pairs =
    [
      ("demaq_processed_total", st.S.processed);
      ("demaq_rule_evaluations_total", st.S.rule_evaluations);
      ("demaq_messages_created_total", st.S.messages_created);
      ("demaq_errors_raised_total", st.S.errors_raised);
      ("demaq_transmissions_total", st.S.transmissions);
      ("demaq_timers_fired_total", st.S.timers_fired);
      ("demaq_gc_collected_total", st.S.gc_collected);
      ("demaq_prefilter_skips_total", st.S.prefilter_skips);
      ("demaq_txn_aborts_total", st.S.txn_aborts);
      ("demaq_transmit_retries_total", st.S.transmit_retries);
      ("demaq_dead_letters_total", st.S.dead_letters);
      ("demaq_wal_group_syncs_total", st.S.wal_group_syncs);
    ]
  in
  List.iter (fun (name, v) -> check int_ name v (scrape_int ex name)) pairs;
  check bool_ "something was processed" true (st.S.processed > 0);
  (* per-worker counters cover the engine's processed total *)
  let worker_sum =
    List.fold_left
      (fun acc (w : Demaq.Engine.Worker_pool.worker_stats) ->
        acc + w.Demaq.Engine.Worker_pool.w_processed)
      0 (S.worker_stats srv)
  in
  check int_ "worker counters sum to processed" st.S.processed worker_sum

let test_exposition_format () =
  let srv = S.deploy obs_program in
  ignore (inject_ok srv "in" "<ping>x</ping>");
  ignore (S.run srv);
  let ex = S.exposition srv in
  let lines = String.split_on_char '\n' ex in
  let has prefix =
    List.exists
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  in
  check bool_ "HELP present" true (has "# HELP demaq_processed_total");
  check bool_ "TYPE counter" true (has "# TYPE demaq_processed_total counter");
  check bool_ "TYPE histogram" true (has "# TYPE demaq_phase_eval_seconds histogram");
  check bool_ "+Inf bucket" true (contains ex {|le="+Inf"|})

let test_stats_json_shape () =
  let srv = S.deploy obs_program in
  ignore (inject_ok srv "in" "<ping>x</ping>");
  ignore (S.run srv);
  let js = S.stats_json srv in
  check bool_ "object" true
    (String.length js > 2 && js.[0] = '{' && js.[String.length js - 1] = '}');
  check bool_ "processed" true (contains js "\"demaq_processed_total\":2");
  check bool_ "derived ratio" true (contains js "\"syncs_per_message\":")

(* ---- lifecycle spans ---- *)

let well_formed (sp : Trace.span) =
  sp.Trace.sp_rid > 0
  && sp.Trace.sp_queue <> ""
  && sp.Trace.sp_lock_ns >= 0
  && sp.Trace.sp_eval_ns >= 0
  && sp.Trace.sp_apply_ns >= 0
  && sp.Trace.sp_barrier_ns >= 0
  && List.for_all (fun a -> a.Trace.a_rule <> "") sp.Trace.sp_activations

(* The span clock has microsecond resolution, and evaluating [//ping]
   alone can finish inside one tick; the extra conjunct gives the traced
   rule enough evaluation work to span many ticks, so a zero eval time
   means the phase was not timed. *)
let timed_obs_program = {|
create queue in kind basic mode persistent
create queue out kind basic mode persistent
create queue errs kind basic mode persistent
create rule pong for in errorqueue errs
  if (//ping and count(1 to 20000) > 0)
  then do enqueue <pong>{string(//ping)}</pong> into out
|}

let test_spans_recorded () =
  let config = { S.default_config with S.trace_capacity = 8; metrics = true } in
  let srv = S.deploy ~config timed_obs_program in
  ignore (inject_ok srv "in" "<ping>x</ping>");
  ignore (S.run srv);
  let spans = S.spans srv in
  check int_ "one span per processed message" 2 (List.length spans);
  check bool_ "well-formed" true (List.for_all well_formed spans);
  let on_in =
    List.find (fun sp -> sp.Trace.sp_queue = "in") spans
  in
  check int_ "rule fired" 1 (List.length on_in.Trace.sp_activations);
  check bool_ "committed" true (on_in.Trace.sp_outcome = Trace.Committed);
  check bool_ "timed" true (on_in.Trace.sp_eval_ns > 0);
  (* the JSONL dump has one line per span *)
  let jsonl = S.spans_jsonl srv in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  check int_ "jsonl lines" 2 (List.length lines);
  List.iter
    (fun l ->
      check bool_ "line is an object" true
        (l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

let test_spans_bounded () =
  let config = { S.default_config with S.trace_capacity = 3 } in
  let srv = S.deploy ~config obs_program in
  for i = 1 to 10 do
    ignore (inject_ok srv "in" (Printf.sprintf "<ping>%d</ping>" i))
  done;
  ignore (S.run srv);
  check int_ "ring bounded" 3 (List.length (S.spans srv))

let test_span_abort_outcome () =
  let config = { S.default_config with S.trace_capacity = 8 } in
  let srv = S.deploy ~config obs_program in
  let f = Fault.create () in
  Fault.fail_on_eval f 1;
  S.set_fault srv (Some f);
  ignore (inject_ok srv "in" "<ping>x</ping>");
  ignore (S.run srv);
  let aborted =
    List.filter
      (fun sp -> match sp.Trace.sp_outcome with Trace.Aborted _ -> true | _ -> false)
      (S.spans srv)
  in
  check int_ "abort recorded" 1 (List.length aborted);
  check bool_ "abort in jsonl" true (contains (S.spans_jsonl srv) "\"aborted:");
  check int_ "abort counter" 1 (S.stats srv).S.txn_aborts

let test_spans_across_crash_restart () =
  (* recovery reschedules unprocessed messages; the restarted server's
     spans must be well-formed and cover exactly the recovered work *)
  let dir = fresh_dir "spans" in
  let cfg = Store.durable_config ~sync:Wal.Sync_always dir in
  let st = Store.open_store cfg in
  let config = { S.default_config with S.trace_capacity = 16 } in
  let srv = S.deploy ~config ~store:st obs_program in
  ignore (inject_ok srv "in" "<ping>a</ping>");
  ignore (inject_ok srv "in" "<ping>b</ping>");
  ignore (S.step srv) (* process one, "crash" with one pending *);
  let st2 = Fault.crash_restart cfg st in
  let srv2 = S.deploy ~config ~store:st2 obs_program in
  ignore (S.run srv2);
  let spans = S.spans srv2 in
  check bool_ "recovered spans well-formed" true
    (spans <> [] && List.for_all well_formed spans);
  check bool_ "all committed" true
    (List.for_all (fun sp -> sp.Trace.sp_outcome = Trace.Committed) spans);
  check int_ "registry matches recovered work" (List.length spans)
    (S.stats srv2).S.processed;
  Store.close st2

(* ---- JSONL escaping ---- *)

let nasty_span =
  {
    Trace.sp_rid = 1;
    sp_queue = "q\"uote";
    sp_flow = "f\\low";
    sp_parent = -1;
    sp_cause = "in\ngress";
    sp_tick = 0;
    sp_worker = 0;
    sp_start_ns = 0;
    sp_wait_ns = 0;
    sp_lock_ns = 0;
    sp_decode_ns = 0;
    sp_eval_ns = 0;
    sp_apply_ns = 0;
    sp_barrier_ns = 0;
    sp_activations =
      [ { Trace.a_rule = "rule\twith\ttabs"; a_updates = 1; a_skipped = false } ];
    sp_actions = 1;
    sp_batch = 1;
    sp_outcome = Trace.Aborted "ctrl\x01char and \"quote\"";
  }

let test_jsonl_escaping () =
  check string_ "quote" {|a\"b|} (Trace.json_escape {|a"b|});
  check string_ "backslash" {|a\\b|} (Trace.json_escape {|a\b|});
  check string_ "newline" {|a\nb|} (Trace.json_escape "a\nb");
  check string_ "control" {|a\u0001b|} (Trace.json_escape "a\x01b");
  let js = Trace.span_json nasty_span in
  (* a line of JSONL must never contain a raw control character or an
     unescaped quote inside a string body *)
  String.iter
    (fun c ->
      check bool_ "no raw control chars" true (Char.code c >= 0x20))
    js;
  check bool_ "queue quote escaped" true (contains js {|"queue":"q\"uote"|});
  check bool_ "flow backslash escaped" true (contains js {|"flow":"f\\low"|});
  check bool_ "cause newline escaped" true (contains js {|in\ngress|});
  check bool_ "rule tabs escaped" true (contains js {|rule\twith\ttabs|});
  check bool_ "abort reason escaped" true
    (contains js {|ctrl\u0001char and \"quote\"|});
  (* the ring dumps it as one well-formed line *)
  let ring = Trace.create ~capacity:4 in
  Trace.record ring nasty_span;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Trace.dump_jsonl ring))
  in
  check int_ "one line" 1 (List.length lines);
  List.iter
    (fun l ->
      check bool_ "line is an object" true
        (l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

(* ---- flow/wait metrics in the exposition ---- *)

let test_flow_metrics_exposition () =
  let config =
    { S.default_config with S.trace_capacity = 2; metrics = true }
  in
  let srv = S.deploy ~config obs_program in
  for i = 1 to 5 do
    ignore (inject_ok srv "in" (Printf.sprintf "<ping>%d</ping>" i))
  done;
  ignore (S.run srv);
  let ex = S.exposition srv in
  (* queue-wait histograms: per-queue series, with HELP/TYPE on the
     label-free family name *)
  check bool_ "wait histogram present" true
    (contains ex "demaq_queue_wait_seconds_count{queue=");
  check bool_ "wait family typed" true
    (contains ex "# TYPE demaq_queue_wait_seconds histogram");
  (* span-ring drop accounting: 5 pings -> 10 spans, capacity 2 *)
  check int_ "trace drops exposed" 8 (scrape_int ex "demaq_trace_dropped_total");
  check bool_ "trace drops typed" true
    (contains ex "# TYPE demaq_trace_dropped_total counter");
  (* build info + uptime *)
  check bool_ "build info labels" true
    (contains ex "demaq_build_info{version=\"");
  check bool_ "uptime gauge" true (contains ex "demaq_uptime_seconds");
  (* and all of it round-trips into the JSON snapshot *)
  let js = S.stats_json srv in
  check bool_ "drops in stats json" true
    (contains js "\"demaq_trace_dropped_total\":8")

(* Every sample line of the exposition is "<name>[{labels}] <value>":
   the metric name, suffix included, comes before the label set. A
   labelled histogram used to expose "x{le=..,queue=..}_bucket". *)
let test_exposition_names_before_labels () =
  let config = { S.default_config with S.trace_capacity = 4; metrics = true } in
  let srv = S.deploy ~config obs_program in
  for i = 1 to 16 do
    ignore (inject_ok srv "in" (Printf.sprintf "<ping>%d</ping>" i))
  done;
  ignore (S.run srv);
  let ex = S.exposition srv in
  let name_ok n =
    n <> ""
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         n
    && not (match n.[0] with '0' .. '9' -> true | _ -> false)
  in
  let well_formed l =
    match String.index_opt l '{', String.index_opt l ' ' with
    | Some i, Some sp when i < sp -> (
      name_ok (String.sub l 0 i)
      &&
      match String.rindex_opt l '}' with
      | Some j -> j + 1 < String.length l && l.[j + 1] = ' '
      | None -> false)
    | _, Some sp -> name_ok (String.sub l 0 sp)
    | _, None -> false
  in
  let samples =
    List.filter
      (fun l -> l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' ex)
  in
  List.iter (fun l -> check bool_ l true (well_formed l)) samples;
  check bool_ "a labelled histogram bucket" true
    (List.exists
       (fun l -> contains l "demaq_queue_wait_seconds_bucket{le=")
       samples);
  check bool_ "its sum keeps the labels" true
    (contains ex "demaq_queue_wait_seconds_sum{queue=\"in\"} ")

(* ---- flow store: trees, bounds, critical path ---- *)

module Flow = Demaq.Obs.Flow

let span_for ?(wait = 0) ?(eval = 0) ~flow ~rid ~parent ~cause () =
  {
    nasty_span with
    Trace.sp_rid = rid;
    sp_queue = "q";
    sp_flow = flow;
    sp_parent = parent;
    sp_cause = cause;
    sp_wait_ns = wait;
    sp_eval_ns = eval;
    sp_activations = [];
    sp_outcome = Trace.Committed;
  }

let test_flow_store_trees () =
  let t = Flow.create ~max_flows:2 ~max_nodes_per_flow:3 () in
  let edge ~rid ~parent ~cause flow =
    Flow.observe t ~rid ~queue:"q" ~flow ~parent ~cause ~tick:rid
  in
  edge ~rid:1 ~parent:(-1) ~cause:"ingress" "f1";
  edge ~rid:2 ~parent:1 ~cause:"a" "f1";
  edge ~rid:3 ~parent:1 ~cause:"b" "f1";
  edge ~rid:1 ~parent:(-1) ~cause:"ingress" "f1" (* idempotent per rid *);
  edge ~rid:4 ~parent:2 ~cause:"c" "f1" (* over the per-flow cap *);
  check int_ "per-flow cap holds" 3 (List.length (Flow.nodes t "f1"));
  check int_ "overflow counted" 1 (Flow.dropped t "f1");
  check (Alcotest.option string_) "reverse index" (Some "f1")
    (Flow.flow_of_rid t 2);
  (* readers join spans into nodes by rid; the slow branch wins the
     critical path *)
  let spans =
    [
      span_for ~wait:10 ~flow:"f1" ~rid:1 ~parent:(-1) ~cause:"ingress" ();
      span_for ~wait:5 ~flow:"f1" ~rid:2 ~parent:1 ~cause:"a" ();
      span_for ~wait:100 ~eval:50 ~flow:"f1" ~rid:3 ~parent:1 ~cause:"b" ();
    ]
  in
  let timed =
    List.map
      (fun n ->
        let span_of (sp : Trace.span) = sp.Trace.sp_rid = n.Flow.n_rid in
        { n with Flow.n_span = List.find_opt span_of spans })
      (Flow.nodes t "f1")
  in
  (match Flow.forest_of_nodes timed with
   | [ root ] ->
     check int_ "root rid" 1 root.Flow.t_node.Flow.n_rid;
     check int_ "two children" 2 (List.length root.Flow.t_children);
     let total, path = Flow.critical_path root in
     check int_ "critical path cost" 160 total;
     check (Alcotest.list int_) "critical path rids" [ 1; 3 ] path
   | forest -> Alcotest.failf "expected one root, got %d" (List.length forest));
  let ascii = Flow.render_ascii "f1" timed in
  check bool_ "ascii names the cause" true (contains ascii "<-ingress");
  check bool_ "ascii marks critical path" true (contains ascii "*");
  (* FIFO flow eviction: two more flows push f1 out *)
  edge ~rid:10 ~parent:(-1) ~cause:"ingress" "f2";
  edge ~rid:11 ~parent:(-1) ~cause:"ingress" "f3";
  check int_ "f1 evicted" 0 (List.length (Flow.nodes t "f1"));
  check int_ "one eviction" 1 (Flow.evicted t);
  check (Alcotest.option string_) "evicted rid unindexed" None
    (Flow.flow_of_rid t 2);
  check int_ "nothing overwritten" 0 (Flow.overwritten t)

(* ---- provenance across crash-restart ---- *)

let test_provenance_across_crash_restart () =
  let dir = fresh_dir "prov" in
  let cfg = Store.durable_config ~sync:Wal.Sync_always dir in
  let st = Store.open_store cfg in
  let config = { S.default_config with S.trace_capacity = 16 } in
  let srv = S.deploy ~config ~store:st obs_program in
  let root = inject_ok srv "in" "<ping>a</ping>" in
  let rid = root.Demaq.Message.rid in
  ignore (S.run srv);
  let flow =
    match S.flow_id_of_rid srv rid with
    | Some f -> f
    | None -> Alcotest.fail "no flow for the injected root"
  in
  check int_ "cascade recorded" 2 (List.length (S.flow_nodes srv flow));
  (* crash: reopen the store; the provenance triples must come back from
     the WAL even though the span ring and flow store restart empty *)
  let st2 = Fault.crash_restart cfg st in
  let srv2 = S.deploy ~config ~store:st2 obs_program in
  check (Alcotest.option string_) "rid still resolves" (Some flow)
    (S.flow_id_of_rid srv2 rid);
  let nodes = S.flow_nodes srv2 flow in
  check int_ "both hops survive" 2 (List.length nodes);
  let child =
    match List.find_opt (fun n -> n.Flow.n_rid <> rid) nodes with
    | Some n -> n
    | None -> Alcotest.fail "child hop missing"
  in
  check int_ "edge intact" rid child.Flow.n_parent;
  check string_ "cause intact" "pong" child.Flow.n_cause;
  check string_ "same flow" flow child.Flow.n_flow;
  (* pre-crash timings are gone, never invented *)
  check bool_ "pre-crash hops render pending" true
    (contains (S.flow_ascii srv2 flow) "pending");
  Store.close st2

(* An aborted transaction leaves no flow node for what it enqueued, and
   the error its abort routes hangs off the failed message, blaming the
   rule whose update failed. *)
let test_aborted_flow_holds_root_and_error () =
  let srv =
    S.deploy
      {|
      create queue in kind basic mode persistent
      create queue out kind basic mode persistent
      create queue errs kind basic mode persistent
      create rule first for in errorqueue errs
        if (//ping) then do enqueue <a/> into out
      create rule second for in errorqueue errs
        if (//ping) then do enqueue <b/> into out
    |}
  in
  let f = Fault.create () in
  Fault.fail_on_apply f 2;
  S.set_fault srv (Some f);
  let rid = (inject_ok srv "in" "<ping/>").Demaq.Message.rid in
  ignore (S.run srv);
  check int_ "fault fired" 1 (Fault.injected f);
  let flow =
    match S.flow_id_of_rid srv rid with
    | Some f -> f
    | None -> Alcotest.fail "no flow for the injected root"
  in
  match List.sort (fun a b -> compare a.Flow.n_rid b.Flow.n_rid) (S.flow_nodes srv flow) with
  | [ root; error ] ->
    check int_ "root" rid root.Flow.n_rid;
    check string_ "error queue" "errs" error.Flow.n_queue;
    check int_ "error's parent" rid error.Flow.n_parent;
    check string_ "error's cause" "second" error.Flow.n_cause
  | nodes ->
    Alcotest.failf "expected the root and its error, got:\n%s"
      (Flow.render_ascii flow nodes)

(* ---- scrape endpoint ---- *)

let test_http_endpoint () =
  let srv = S.deploy obs_program in
  ignore (inject_ok srv "in" "<ping>x</ping>");
  ignore (S.run srv);
  let handler (req : Http.request) =
    match req.Http.path with
    | "/metrics" ->
      Some
        (Http.ok ~content_type:"text/plain; version=0.0.4" (S.exposition srv))
    | _ -> None
  in
  match Http.start ~port:0 handler with
  | Error msg -> Alcotest.failf "http start: %s" msg
  | Ok server ->
    Fun.protect
      ~finally:(fun () -> Http.stop server)
      (fun () ->
        let port = Http.port server in
        check bool_ "ephemeral port assigned" true (port > 0);
        let status, body = Http.get ~port "/metrics" in
        check bool_ "200" true (contains status "200");
        check int_ "scraped processed total" (S.stats srv).S.processed
          (scrape_int body "demaq_processed_total");
        let status, _ = Http.get ~port "/nope" in
        check bool_ "404" true (contains status "404"))

(* ---- span retention: the ring is the only span store ---- *)

let test_ring_bounds_span_retention () =
  let config = { S.default_config with S.trace_capacity = 2 } in
  let srv =
    S.deploy ~config
      {|create queue roots kind basic mode persistent
        create queue mids kind basic mode persistent
        create queue leaves kind basic mode persistent
        create rule left for roots if (//r) then do enqueue <m/> into mids
        create rule right for roots if (//r) then do enqueue <m/> into mids
        create rule down for mids if (//m) then do enqueue <l/> into leaves|}
  in
  let root = inject_ok srv "roots" "<r/>" in
  ignore (S.run srv);
  let flow =
    match S.flow_id_of_rid srv root.Demaq.Message.rid with
    | Some f -> f
    | None -> Alcotest.fail "no flow for the injected root"
  in
  (* (node count, rids of the nodes that carry a span) *)
  let read () =
    let nodes = S.flow_nodes srv flow in
    let timed = List.filter (fun n -> n.Flow.n_span <> None) nodes in
    (List.length nodes, List.map (fun n -> n.Flow.n_rid) timed)
  in
  let count, timed = read () in
  check int_ "whole cascade" 5 count;
  check int_ "spans held = trace_capacity" 2 (List.length timed);
  check bool_ "second read agrees" true (read () = (count, timed))

(* /stats.json keys a labelled histogram's totals the way /metrics names
   them: the suffix on the family, the labels after it. *)
let test_stats_json_labelled_histogram_keys () =
  let config = { S.default_config with S.metrics = true } in
  let srv = S.deploy ~config obs_program in
  for i = 1 to 16 do
    ignore (inject_ok srv "in" (Printf.sprintf "<ping>%d</ping>" i))
  done;
  ignore (S.run srv);
  let js = S.stats_json srv in
  check bool_ "count key" true
    (contains js {|"demaq_queue_wait_seconds_count{queue=\"in\"}":|});
  check bool_ "sum key" true
    (contains js {|"demaq_queue_wait_seconds_sum{queue=\"in\"}":|});
  check bool_ "no suffix after the labels" false (contains js {|}_count"|})

(* ---- flow store: the staging ring ---- *)

(* More edges than the ring holds between two reads: the oldest are
   overwritten and forgotten, the rest are indexed in staging order. *)
let test_flow_ring_wrap () =
  let cap = Flow.log_capacity and k = 7 in
  let t = Flow.create ~max_flows:4 ~max_nodes_per_flow:(cap + k + 3) () in
  let edge rid =
    Flow.observe t ~rid ~queue:(if rid mod 2 = 0 then "even" else "odd")
      ~flow:"f" ~parent:(rid - 1) ~cause:(string_of_int (rid mod 3)) ~tick:rid
  in
  (* a first read drains three edges, so the next burst starts mid-ring *)
  List.iter edge [ 1; 2; 3 ];
  check int_ "first read" 3 (List.length (Flow.nodes t "f"));
  for rid = 4 to cap + k + 3 do
    edge rid
  done;
  check int_ "overwritten = k" k (Flow.overwritten t);
  for rid = 4 to k + 3 do
    check (Alcotest.option string_) (Printf.sprintf "rid %d unknown" rid) None
      (Flow.flow_of_rid t rid)
  done;
  let nodes = Flow.nodes t "f" in
  check (Alcotest.list int_) "drained before the wrap, then the newest in order"
    ([ 1; 2; 3 ] @ List.init cap (fun i -> k + 4 + i))
    (List.map (fun n -> n.Flow.n_rid) nodes);
  List.iter
    (fun n ->
      let rid = n.Flow.n_rid in
      check string_ "queue" (if rid mod 2 = 0 then "even" else "odd") n.Flow.n_queue;
      check int_ "parent" (rid - 1) n.Flow.n_parent;
      check string_ "cause" (string_of_int (rid mod 3)) n.Flow.n_cause;
      check string_ "flow" "f" n.Flow.n_flow)
    nodes;
  (match Flow.summaries t with
   | [ s ] ->
     check int_ "first tick" 1 s.Flow.s_first_tick;
     check int_ "last tick" (cap + k + 3) s.Flow.s_last_tick
   | l -> Alcotest.failf "expected one flow, got %d" (List.length l));
  (* the ring is empty again: a later edge is indexed on its own *)
  edge (cap + k + 4);
  check int_ "nothing more overwritten" k (Flow.overwritten t);
  check int_ "one more node" (cap + 4) (List.length (Flow.nodes t "f"))

(* Staging an edge whose strings already exist allocates nothing. *)
let test_flow_observe_allocates_nothing () =
  let t = Flow.create ~max_nodes_per_flow:2_000 () in
  let queue = "orders" and flow = "flow-1" and cause = "billOrder" in
  (* the first edge allocates the ring *)
  Flow.observe t ~rid:0 ~queue ~flow ~parent:(-1) ~cause ~tick:0;
  let before = Gc.minor_words () in
  for rid = 1 to 1_000 do
    Flow.observe t ~rid ~queue ~flow ~parent:0 ~cause ~tick:rid
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "minor words for 1,000 observes" 0. words;
  check int_ "all staged" 1_001 (List.length (Flow.nodes t flow))

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "shard binding aggregates" `Quick
      test_shard_binding_aggregates;
    QCheck_alcotest.to_alcotest prop_sharded_totals;
    Alcotest.test_case "unbound domain falls back to shard 0" `Quick
      test_unbound_domain_falls_back_to_shard_zero;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "timing gate" `Quick test_timing_gate;
    Alcotest.test_case "exposition round-trips Server.stats" `Quick
      test_exposition_roundtrip;
    Alcotest.test_case "exposition format" `Quick test_exposition_format;
    Alcotest.test_case "stats json shape" `Quick test_stats_json_shape;
    Alcotest.test_case "spans recorded" `Quick test_spans_recorded;
    Alcotest.test_case "spans bounded" `Quick test_spans_bounded;
    Alcotest.test_case "span abort outcome" `Quick test_span_abort_outcome;
    Alcotest.test_case "spans across crash-restart" `Quick
      test_spans_across_crash_restart;
    Alcotest.test_case "jsonl escaping" `Quick test_jsonl_escaping;
    Alcotest.test_case "flow/wait metrics exposition" `Quick
      test_flow_metrics_exposition;
    Alcotest.test_case "flow store trees" `Quick test_flow_store_trees;
    Alcotest.test_case "provenance across crash-restart" `Quick
      test_provenance_across_crash_restart;
    Alcotest.test_case "http endpoint" `Quick test_http_endpoint;
    Alcotest.test_case "ring bounds span retention" `Quick
      test_ring_bounds_span_retention;
    Alcotest.test_case "exposition names metrics before labels" `Quick
      test_exposition_names_before_labels;
    Alcotest.test_case "stats json names histogram totals like /metrics" `Quick
      test_stats_json_labelled_histogram_keys;
    Alcotest.test_case "flow ring wrap keeps the newest edges" `Quick
      test_flow_ring_wrap;
    Alcotest.test_case "flow observe allocates nothing" `Quick
      test_flow_observe_allocates_nothing;
    Alcotest.test_case "aborted flow holds the root and its error" `Quick
      test_aborted_flow_holds_root_and_error;
  ]
