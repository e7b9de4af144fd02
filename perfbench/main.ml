(* End-to-end benchmark of one embedded Demaq node.

   The harness deploys a node in its own process and drives it through the
   public API only: [Store.open_store], [Server.deploy], [Http.start] with
   [Ingress.handler], [Server.run] and [Server.maintain]. It is a closed
   loop with one client on the main domain: send a request, wait for the
   ack, then drain the node with [Server.run] until it is quiescent. There
   is no sleep and no poll in the timed path, maintenance runs on a cadence
   counted in requests, and every input is generated from the seed before
   the clock starts. Every time it reports is scaled to a reference speed
   of the machine (module [Speed]). See README.md for the workloads and
   metrics.

   Usage: main.exe --workload fanout|filter|restart --seed N --seconds S
            --trace 0|1 [--work-dir DIR]

   The last line of stdout is one JSON object with [correct], [attempted],
   [failed] and [metrics]; the lines before it are a readable report. The
   exit code is 1 when an output check fails. *)

module S = Demaq.Server
module Store = Demaq.Store.Message_store
module Wal = Demaq.Store.Wal
module Http = Demaq.Net.Http
module Ingress = Demaq.Engine.Ingress
module Schema = Demaq.Xml.Schema
module Parser = Demaq.Xml.Parser
module Trace = Demaq.Obs.Trace
module Ts = Demaq.Obs.Time_source
module Defs = Demaq.Mq.Defs

let now_ns () = Ts.now_ns Ts.real

(* CPU time of the process (all threads), to about a microsecond. It
   leaves out the time the process's threads wait to run: in the
   container's run queue, or stolen by the host from the virtual CPU. *)
let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)
let ms ns = float ns /. 1e6
let us ns = float ns /. 1e3

(* ---- command line ---- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let traced = ref false
let work_dir = ref ".bench_build/perfbench"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "fanout | filter | restart");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "length of the timed phase");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0: end-to-end, 1: per-layer");
      ("--work-dir", Arg.Set_string work_dir, "scratch directory for stores");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1"

(* ---- samples and statistics ---- *)

(* Every sample (latencies, set-up times, per-call timings) goes into a
   log-linear histogram rather than a growing array, so the process's
   memory does not grow with the number of requests a run completes;
   values keep 1/2048 relative precision from 1e-3 to 1e5 of their unit
   (1 us to 100 s for milliseconds). *)
module Hist = struct
  let lo = 1e-3
  let k = 1. /. Float.log1p (1. /. 2048.)
  let size = int_of_float (Float.log (1e5 /. lo) *. k) + 1

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make size 0; n = 0 }

  let add t x =
    let i = if x <= lo then 0 else min (size - 1) (int_of_float (Float.log (x /. lo) *. k)) in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  let length t = t.n

  let reset t =
    Array.fill t.counts 0 size 0;
    t.n <- 0

  let merge dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.n <- dst.n + src.n

  (* nearest rank; a bucket reads as its geometric midpoint *)
  let percentile t p =
    if t.n = 0 then nan
    else begin
      let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float t.n))) in
      let rec go i acc =
        let acc = acc + t.counts.(i) in
        if acc >= rank then i else go (i + 1) acc
      in
      lo *. Float.exp ((float (go 0 0) +. 0.5) /. k)
    end

  let median t = percentile t 50.
end

let per a b = if b = 0 then 0. else float a /. float b

(* ---- the machine's speed ---- *)

(* The shared cores' speed drifts by tens of percent within a second: a
   plain CPU loop, timed every half second on an otherwise idle
   container, took between 77 and 118 ms, with CPU time equal to wall
   time (the core ran slower; the process was not descheduled). The
   memory shared with other tenants drifts too. Every time the harness
   reports is therefore scaled to one reference speed. Between requests
   (or drain calls) the harness times two fixed probes that use nothing
   of the program under test, one bound by the core and one by memory,
   and multiplies each time it measures by

     1 / (0.5 * core / core_nominal + 0.5 * memory / memory_nominal)

   with each probe's median duration among its last [window] runs. A
   change to the program moves its times and leaves the probes' alone; a
   change of the machine's speed moves both. The program's own time lies
   between the two: over 343 restarts whose drain time varied by 16%
   (coefficient of variation), the drain time scaled by the core probe
   alone varied by 10.5%, by the memory probe alone by 11.8%, and by the
   equal mix by 7.5% (a quarter or three quarters core: 9.1% and 8.0%). *)
module Speed = struct
  let window = 15

  (* fixed reference durations, near each probe's median on the 2-core
     development machine *)
  let core_nominal_ns = 55_000.
  let memory_nominal_ns = 80_000.

  (* the last [window] durations of one probe and their running median,
     and every duration for the report *)
  type series = { recent : float array; sorted : float array; mutable next : int; all_us : Hist.t }

  let make nominal =
    { recent = Array.make window nominal; sorted = Array.make window nominal; next = 0;
      all_us = Hist.create () }

  let core = make core_nominal_ns
  let memory = make memory_nominal_ns

  let record p dt =
    Hist.add p.all_us (dt /. 1e3);
    p.recent.(p.next) <- dt;
    p.next <- (p.next + 1) mod window;
    (* insertion sort into [sorted]: the median of the window *)
    for i = 0 to window - 1 do
      let x = p.recent.(i) in
      let j = ref i in
      while !j > 0 && p.sorted.(!j - 1) > x do
        p.sorted.(!j) <- p.sorted.(!j - 1);
        decr j
      done;
      p.sorted.(!j) <- x
    done

  let median p = p.sorted.(window / 2)

  let keys = Array.init 2048 (fun i -> Printf.sprintf "key-%d" (i * 7919))

  let table =
    let t = Hashtbl.create 2048 in
    Array.iteri (fun i k -> Hashtbl.replace t k i) keys;
    t

  let scratch = Bytes.create 16384

  (* Core: hash lookups and string copies over 160 KB, which stays in the
     core's own cache. *)
  let core_work () =
    let sum = ref 0 and pos = ref 0 in
    for i = 0 to 1023 do
      let k = keys.(i * 613 land 2047) in
      sum := !sum + Hashtbl.find table k;
      let n = String.length k in
      if !pos + n > Bytes.length scratch then pos := 0;
      Bytes.blit_string k 0 scratch !pos n;
      pos := !pos + n
    done;
    !sum

  (* Memory: 256 dependent loads along one random cycle through 16 MiB,
     so that nearly every load misses the core's caches. The cycle lives
     outside the OCaml heap, where the collector neither scans it nor
     sizes the heap by it. *)
  let cycle =
    let n = 1 lsl 21 in
    let a = Bigarray.(Array1.create int c_layout n) in
    for i = 0 to n - 1 do
      a.{i} <- i
    done;
    let rng = Random.State.make [| 0x5eed |] in
    (* Sattolo's shuffle: a single cycle through every slot *)
    for i = n - 1 downto 1 do
      let j = Random.State.int rng i in
      let t = a.{i} in
      a.{i} <- a.{j};
      a.{j} <- t
    done;
    a

  let at = ref 0

  let memory_work () =
    let p = ref !at in
    for _ = 1 to 256 do
      p := cycle.{!p}
    done;
    at := !p

  let current = ref 1.

  (* The core probe's first pass warms the caches and only the second is
     timed, so that the program's own cache footprint does not slow it:
     timed cold, it took 116 us between fanout requests and 78 us between
     restart drain calls; timed warm, 57 and 54 us. Neither probe
     allocates, so they move neither the ledger's exact allocation counts
     nor the collector. *)
  let probe () =
    ignore (Sys.opaque_identity (core_work ()));
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (core_work ()));
    let t1 = now_ns () in
    memory_work ();
    let t2 = now_ns () in
    record core (float (t1 - t0));
    record memory (float (t2 - t1));
    current :=
      1. /. ((0.5 *. median core /. core_nominal_ns) +. (0.5 *. median memory /. memory_nominal_ns))

  let refresh () =
    for _ = 1 to window do
      probe ()
    done

  (* multiply a time measured now by this to scale it to the reference *)
  let factor () = !current
end

(* ---- metrics and the result line ---- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let mismatches = ref []

let expect what ok = if not ok then mismatches := what :: !mismatches

let expect_eq what ~want got =
  expect (Printf.sprintf "%s: expected %d, got %d" what want got) (want = got)

let print_report title ms_ =
  Printf.printf "%s\n" title;
  Printf.printf "  %-34s %16s  %-8s %8s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m -> Printf.printf "  %-34s %16.4f  %-8s %8d\n" m.name m.value m.unit_ m.samples)
    ms_

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~attempted ~failed ms_ =
  List.iter
    (fun m -> expect (m.name ^ " has no value") (Float.is_finite m.value))
    ms_;
  let ms_ = List.map (fun m -> if Float.is_finite m.value then m else { m with value = 0. }) ms_ in
  let correct = !mismatches = [] && failed = 0 in
  List.iter (fun m -> Printf.printf "CHECK FAILED: %s\n" m) (List.rev !mismatches);
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
          m.unit_)
      ms_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields);
  correct

(* ---- scratch directories (all under --work-dir) ---- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let fresh_dir name =
  let d = Filename.concat !work_dir name in
  rm_rf d;
  mkdir_p d;
  d

let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun f ->
      let data = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

(* ---- the node ---- *)

(* Tracing keeps the span ring big enough to hold every message processed
   between two harvests (one maintenance interval). *)
let span_ring = 4096

let batch_size = 16

let node_config ~trace =
  {
    S.default_config with
    S.workers = 1;
    batch_size;
    group_commit = true;
    trace_capacity = (if trace then span_ring else 0);
    metrics = false;
  }

(* Sync_never: the WAL is encoded and appended on every commit and the
   engine still issues its group-commit barriers, but no fsync reaches the
   shared virtual disk, whose latency would swamp the node's own. *)
let store_config dir = Store.durable_config ~sync:Wal.Sync_never dir

type node = {
  srv : S.t;
  store : Store.t;
  http : Http.t option;
  ready_ms : float;  (** open + deploy + HTTP bind, at the reference speed *)
}

type setup = {
  open_ms : Hist.t;
  deploy_ms : Hist.t;
  ready_ms : Hist.t;  (** open + deploy + HTTP bind *)
}

let new_setup () =
  { open_ms = Hist.create (); deploy_ms = Hist.create (); ready_ms = Hist.create () }

(* Open, deploy and (with a [handler]) serve a node, timing each step on
   [clock]: the wall clock, or [cpu_ns] for restart, whose node runs on
   one thread. *)
let open_node ?(clock = now_ns) setup ~program ~trace ~handler dir =
  Speed.refresh ();
  let f = Speed.factor () in
  let t0 = clock () in
  let store = Store.open_store (store_config dir) in
  let t1 = clock () in
  let srv = S.deploy ~config:(node_config ~trace) ~store program in
  let t2 = clock () in
  let http =
    Option.map
      (fun wrap ->
        match Http.start ~pool:1 ~port:0 (wrap (Ingress.handler srv)) with
        | Ok h -> h
        | Error e -> failwith e)
      handler
  in
  let t3 = clock () in
  let ready_ms = ms (t3 - t0) *. f in
  Hist.add setup.open_ms (ms (t1 - t0) *. f);
  Hist.add setup.deploy_ms (ms (t2 - t1) *. f);
  Hist.add setup.ready_ms ready_ms;
  { srv; store; http; ready_ms }

let close_node n =
  Option.iter Http.stop n.http;
  Store.close n.store

let port n = match n.http with Some h -> Http.port h | None -> invalid_arg "no http"

(* The handler wrapper of the traced run: time [Ingress.handler] on the
   accept domain so the client can split its round trip into handler and
   transport. The end-to-end run does not wrap. *)
let handler_ns = Atomic.make 0

let timed_handler h req =
  let t0 = now_ns () in
  let r = h req in
  Atomic.set handler_ns (now_ns () - t0);
  r

let plain_handler h = h

(* Words this domain has allocated so far, exactly. [Gc.quick_stat] folds
   other domains in only at their minor collections, and a domain's own
   minor-word count is exact only right after a minor collection. *)
let exact_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The handler wrapper of the exact-count segment: asked to by the client,
   the accept domain publishes its allocation total on entry to the next
   request, so the difference between two readings covers whole
   requests. *)
let accept_words = Atomic.make 0.
let want_accept_words = Atomic.make false

let counting_handler h req =
  if Atomic.exchange want_accept_words false then Atomic.set accept_words (exact_words ());
  h req

(* ---- the per-layer ledger ---- *)

type ledger = {
  ack_ms : Hist.t;  (** client round trip of one POST *)
  handler_us : Hist.t;
  transport_us : Hist.t;
  maintain_ms : Hist.t;
  mutable run_ns : float;
  mutable run_msgs : int;
  mutable spans : int;
  mutable wait_ns : float;
  mutable lock_ns : float;
  mutable decode_ns : float;
  mutable eval_ns : float;
  mutable apply_ns : float;
  mutable last_rid : int;
}

let new_ledger () =
  {
    ack_ms = Hist.create ();
    handler_us = Hist.create ();
    transport_us = Hist.create ();
    maintain_ms = Hist.create ();
    run_ns = 0.;
    run_msgs = 0;
    spans = 0;
    wait_ns = 0.;
    lock_ns = 0.;
    decode_ns = 0.;
    eval_ns = 0.;
    apply_ns = 0.;
    last_rid = -1;
  }

(* Fold the spans recorded since the last harvest into the ledger. Every
   harvest follows a drain to quiescence and rids only grow, so the spans
   of one interval all lie above the previous interval's highest rid. *)
let harvest led srv =
  let fresh = List.filter (fun sp -> sp.Trace.sp_rid > led.last_rid) (S.spans srv) in
  let f = Speed.factor () in
  let add acc ns = acc +. (float ns *. f) in
  List.iter
    (fun sp ->
      led.spans <- led.spans + 1;
      led.wait_ns <- add led.wait_ns sp.Trace.sp_wait_ns;
      led.lock_ns <- add led.lock_ns sp.Trace.sp_lock_ns;
      led.decode_ns <- add led.decode_ns sp.Trace.sp_decode_ns;
      led.eval_ns <- add led.eval_ns sp.Trace.sp_eval_ns;
      led.apply_ns <- add led.apply_ns sp.Trace.sp_apply_ns;
      led.last_rid <- max led.last_rid sp.Trace.sp_rid)
    fresh

(* WAL bytes retired by compaction so far: the store's own byte count
   restarts at every compaction, the ledger wants the total appended. *)
let wal_reclaimed = ref 0

let maintain ~gc_budget ~compact srv =
  let _, reclaimed = S.maintain ~gc_budget ~max_wal_bytes:compact srv in
  wal_reclaimed := !wal_reclaimed + reclaimed

(* One POST: [true] for a 202 whose body [accepted] approves. With
   [record], its round trip goes into the ledger, split into the time in
   the (timed) handler and the rest, the transport. *)
let post led ~record ~port ~path ~accepted body =
  let f = Speed.factor () in
  let t0 = now_ns () in
  let ok =
    match Http.post ~port path body with
    | status, resp -> Http.status_code status = 202 && accepted resp
    | exception Unix.Unix_error _ -> false
  in
  if record then begin
    let rtt = now_ns () - t0 and h = Atomic.get handler_ns in
    Hist.add led.ack_ms (ms rtt *. f);
    Hist.add led.handler_us (us h *. f);
    Hist.add led.transport_us (us (rtt - h) *. f)
  end;
  ok

(* Pass over the spans recorded so far (a warm-up's) without counting them. *)
let skip_spans led srv =
  List.iter (fun sp -> led.last_rid <- max led.last_rid sp.Trace.sp_rid) (S.spans srv)

(* Exact counters at one point of a run; the ledger reports the difference
   between two snapshots taken at fixed request indices. *)
type snap = {
  st : S.stats;
  sst : Store.stats;
  adm : int * int * int;
  wal_bytes : int;  (** appended since the store was opened *)
  words : float;  (** allocated by the main and the accept domain *)
  gc : Gc.stat;  (** collection counts *)
}

let snapshot srv =
  let sst = Store.stats (S.store srv) in
  {
    st = S.stats srv;
    sst;
    adm = S.admission_stats srv;
    wal_bytes = sst.Store.wal_bytes + !wal_reclaimed;
    words = exact_words ();
    gc = Gc.quick_stat ();
  }

(* A snapshot taken before sending a request, completed once the request
   is done with the accept domain's reading from its entry. *)
let with_accept_words s = { s with words = s.words +. Atomic.get accept_words }

let ledger_counts ~roots a b =
  let s0, d0, db0 = a.adm and s1, d1, db1 = b.adm in
  let per_root x = x /. float roots in
  [
    metric ~samples:roots "xml.decodes_per_root" "count" (per (d1 - d0) roots);
    metric ~samples:roots "xml.decoded_kb_per_root" "KB" (per_root (float (db1 - db0) /. 1024.));
    metric ~samples:roots "engine.admission_scans_per_root" "count" (per (s1 - s0) roots);
    metric ~samples:roots "engine.rule_evals_per_root" "count"
      (per (b.st.S.rule_evaluations - a.st.S.rule_evaluations) roots);
    metric ~samples:roots "engine.prefilter_skips_per_root" "count"
      (per (b.st.S.prefilter_skips - a.st.S.prefilter_skips) roots);
    metric ~samples:roots "store.wal_bytes_per_root" "B"
      (per (b.wal_bytes - a.wal_bytes) roots);
    metric ~samples:roots "store.wal_records_per_root" "count"
      (per (b.sst.Store.wal_records - a.sst.Store.wal_records) roots);
    metric ~samples:roots "gc.alloc_kb_per_root" "KB"
      (per_root ((b.words -. a.words) *. float (Sys.word_size / 8) /. 1024.));
    metric ~samples:roots "gc.minor_per_1k_roots" "count"
      (per_root (1000. *. float (b.gc.Gc.minor_collections - a.gc.Gc.minor_collections)));
    metric ~samples:roots "gc.major_per_1k_roots" "count"
      (per_root (1000. *. float (b.gc.Gc.major_collections - a.gc.Gc.major_collections)));
  ]

let check_clean what st =
  expect_eq (what ^ " txn_aborts") ~want:0 st.S.txn_aborts;
  expect_eq (what ^ " errors_raised") ~want:0 st.S.errors_raised

(* [Parser.parse_many] over the workload's own request bodies, outside the
   node: the text-parsing cost per document. Median of five passes of at
   least 50 ms each. *)
let parse_us_per_doc bodies =
  let passes = Hist.create () in
  for _ = 1 to 5 do
    Speed.refresh ();
    let f = Speed.factor () in
    let t0 = now_ns () in
    let docs = ref 0 in
    while now_ns () - t0 < 50_000_000 do
      Array.iter (fun b -> docs := !docs + List.length (Parser.parse_many b)) bodies
    done;
    Hist.add passes (us (now_ns () - t0) *. f /. float !docs)
  done;
  Hist.median passes

(* ---- workload inputs, generated from the seed before timing ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fanout_program () = read_file "examples/order_fanout.demaq"

(* Schema-generated <order> bodies; the seed offsets the [vary] indices. *)
let order_bodies program ~offset n =
  let schema =
    match Demaq.Lang.Qdl.parse_program_result program with
    | Error e -> failwith e
    | Ok p -> (
      match
        List.find_opt (fun (q : Defs.queue_def) -> q.Defs.qname = "orders")
          (Demaq.Lang.Qdl.queues p)
      with
      | Some { Defs.schema = Some s; _ } -> s
      | _ -> failwith "queue orders has no schema")
  in
  Array.init n (fun i ->
      match Schema.example ~vary:((!seed * 100_003) + offset + i) schema "order" with
      | Some t -> Demaq.xml_to_string t
      | None -> failwith "no <order> example")

(* 16 rules, each requiring an element most traffic does not carry: the
   prefilter decides admission from the synopsis, and only the documents
   carrying <recall/> are evaluated and produce a derived message. *)
let filter_program =
  let rules =
    List.init 16 (fun i ->
        let elem = if i = 7 then "recall" else Printf.sprintf "audit%02d" i in
        Printf.sprintf "create rule r%02d for in if (//%s) then do enqueue <hit n=\"%d\"/> into out"
          i elem i)
  in
  "create queue in kind basic mode persistent\ncreate queue out kind basic mode persistent\n"
  ^ String.concat "\n" rules

let filter_batch = 32

(* One request body: [filter_batch] order documents, exactly one of which
   (at a seeded position) carries <recall/>. *)
let filter_body rng n =
  let b = Buffer.create (filter_batch * 1800) in
  let recall = Random.State.int rng filter_batch in
  for d = 0 to filter_batch - 1 do
    Printf.bprintf b
      "<order>%s<orderID>ord-%d-%d</orderID><customer><name>ACME Corp</name><tier>gold</tier></customer><items>"
      (if d = recall then "<recall/>" else "")
      n d;
    for _ = 1 to 12 do
      Printf.bprintf b
        "<item sku=\"SKU-%04d\" qty=\"%d\"><desc>industrial glue cartridge</desc><price>%d.%02d</price></item>"
        (Random.State.int rng 10000)
        (1 + Random.State.int rng 5)
        (10 + Random.State.int rng 90)
        (Random.State.int rng 100)
    done;
    Buffer.add_string b
      "</items><shipTo><street>1 Infinite Loop</street><city>Walldorf</city></shipTo></order>\n"
  done;
  Buffer.contents b

(* ---- live workloads: fanout and filter ---- *)

type live = {
  program : string;
  path : string;  (** the enqueue endpoint *)
  bodies : string array;  (** request bodies, cycled *)
  docs : int;  (** root messages per request *)
  accepted : string -> bool;  (** is this 202 body a full acceptance? *)
  processed : int;  (** messages one request's cascades process *)
  created : int;  (** derived messages per request *)
  evals : int;  (** rule evaluations per request *)
  decodes : int;  (** at most this many payload decodes per request *)
  maint_every : int;  (** requests between maintenance ticks *)
  gc_budget : int;
  compact_bytes : int;
      (** WAL bytes between log compactions. Compaction is what drops the
          retention GC's tombstones, so it keeps the store bounded over a
          run; it also fsyncs a snapshot, so it should hit well under 1% of
          requests to stay out of the p99. *)
  warmup : int;  (** requests before the clock starts *)
  ledger_reqs : int;  (** requests in the exact-count segment *)
}

(* Set-ups timed before the serving node's own; an end-to-end run times
   one more in every second of its timed phase, so that [setup_s] samples
   the whole run as the other metrics do. *)
let setup_reps = 10

(* requests (or restart drain calls) between two speed probes *)
let probe_every = 8

type live_run = {
  setup : setup;
  latency_ms : Hist.t;  (** per request: POST sent .. cascade hardened *)
  busy_s : float;  (** the timed requests' latencies, summed *)
  roots : int;
  failed : int;
  counts : metric list;  (** exact-count ledger, when asked for *)
  live_end : int;
}

(* Set up a node on a fresh directory, timing it, and tear it down. *)
let setup_rep w setup ~trace ~handler name =
  let dir = fresh_dir (name ^ "-setup") in
  close_node (open_node setup ~program:w.program ~trace ~handler:(Some handler) dir);
  rm_rf dir

let run_live w ~name ~trace ~seconds ~with_ledger led =
  let setup = new_setup () in
  let handler =
    if trace then timed_handler else if with_ledger then counting_handler else plain_handler
  in
  for _ = 1 to setup_reps do
    setup_rep w setup ~trace ~handler name
  done;
  let dir = fresh_dir name in
  let node = open_node setup ~program:w.program ~trace ~handler:(Some handler) dir in
  let port = port node in
  led.last_rid <- -1;
  let latency = Hist.create () and busy = ref 0. in
  let failed = ref 0 in
  let sent = ref 0 in
  let snap_a = ref None and snap_b = ref None in
  let ledger_end = w.warmup + w.ledger_reqs in
  let request i =
    let body = w.bodies.(i mod Array.length w.bodies) in
    let f = Speed.factor () in
    let t0 = now_ns () in
    let acked =
      post led ~record:(trace && i >= w.warmup) ~port ~path:w.path ~accepted:w.accepted body
    in
    if i mod w.maint_every = 0 then begin
      let tm = now_ns () in
      maintain ~gc_budget:w.gc_budget ~compact:w.compact_bytes node.srv;
      if trace && i >= w.warmup then Hist.add led.maintain_ms (ms (now_ns () - tm) *. f)
    end;
    let t_run = now_ns () in
    let n = S.run node.srv in
    let t_end = now_ns () in
    incr sent;
    if not (acked && n = w.processed) then failed := !failed + w.docs;
    if i >= w.warmup then begin
      Hist.add latency (ms (t_end - t0) *. f);
      busy := !busy +. (float (t_end - t0) *. f /. 1e9);
      if trace then begin
        led.run_ns <- led.run_ns +. (float (t_end - t_run) *. f);
        led.run_msgs <- led.run_msgs + n;
        if i mod w.maint_every = 0 then harvest led node.srv
      end
    end;
    if i mod probe_every = 0 then Speed.probe ()
  in
  let i = ref 0 in
  while !i < w.warmup do
    request !i;
    incr i
  done;
  if trace then skip_spans led node.srv;
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let next_setup = ref t_start in
  while now_ns () < deadline || (with_ledger && !i <= ledger_end) do
    (* a set-up between two requests, off the clock, once a second.
       Traced runs skip it, to keep the node's spans and the exact counts
       to the workload's own work. *)
    if not (trace || with_ledger) && now_ns () >= !next_setup then begin
      next_setup := !next_setup + 1_000_000_000;
      setup_rep w setup ~trace ~handler name
    end;
    let boundary = with_ledger && (!i = w.warmup || !i = ledger_end) in
    let s =
      if boundary then begin
        Atomic.set want_accept_words true;
        Some (snapshot node.srv)
      end
      else None
    in
    request !i;
    (match s with
     | Some s when !i = w.warmup -> snap_a := Some (with_accept_words s)
     | Some s -> snap_b := Some (with_accept_words s)
     | None -> ());
    incr i
  done;
  if trace then harvest led node.srv;
  (* the node's own totals must match the requests it was sent *)
  let st = S.stats node.srv in
  check_clean name st;
  expect_eq (name ^ " processed") ~want:(!sent * w.processed) st.S.processed;
  expect_eq (name ^ " created") ~want:(!sent * (w.docs + w.created)) st.S.messages_created;
  expect_eq (name ^ " rule evaluations") ~want:(!sent * w.evals) st.S.rule_evaluations;
  expect_eq (name ^ " pending") ~want:0 (S.pending_messages node.srv);
  let _, decodes, _ = S.admission_stats node.srv in
  expect
    (Printf.sprintf "%s decodes: %d, more than %d" name decodes (!sent * w.decodes))
    (decodes <= !sent * w.decodes);
  let live_end = (Store.stats node.store).Store.live_messages in
  close_node node;
  rm_rf dir;
  let counts =
    match (!snap_a, !snap_b) with
    | Some a, Some b -> ledger_counts ~roots:(w.ledger_reqs * w.docs) a b
    | _ -> []
  in
  {
    setup;
    latency_ms = latency;
    busy_s = !busy;
    roots = (!i - w.warmup) * w.docs;
    failed = !failed;
    counts;
    live_end;
  }

let fanout_workload () =
  let program = fanout_program () in
  {
    program;
    path = "/enqueue/orders";
    bodies = order_bodies program ~offset:0 1024;
    docs = 1;
    accepted = (fun _ -> true);
    processed = 6;
    created = 5;
    evals = 5;
    decodes = 1;
    maint_every = 32;
    gc_budget = 512;
    compact_bytes = 1 lsl 20;
    warmup = 512;
    ledger_reqs = 1024;
  }

let filter_workload () =
  let rng = Random.State.make [| !seed; 0xf17e |] in
  let accepted_tag = Printf.sprintf "accepted=\"%d\" rejected=\"0\"" filter_batch in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  {
    program = filter_program;
    path = "/enqueue/in";
    bodies = Array.init 64 (filter_body rng);
    docs = filter_batch;
    accepted = (fun resp -> contains resp accepted_tag);
    processed = filter_batch + 1;
    created = 1;
    (* only the <recall/> document is evaluated, and only it may need
       its tree (a live message usually still carries the parsed one) *)
    evals = 1;
    decodes = 1;
    maint_every = 8;
    gc_budget = 1024;
    compact_bytes = 16 lsl 20;
    warmup = 64;
    ledger_reqs = 64;
  }

(* Closed loop: roots completed per second of the timed requests' own
   time, from sending to hardened. *)
let throughput r = float r.roots /. r.busy_s

let setup_metric s =
  metric ~samples:(Hist.length s.ready_ms) "setup_s" "s" (Hist.median s.ready_ms /. 1e3)

let live_e2e r =
  let n = Hist.length r.latency_ms in
  [
    metric ~samples:n "latency_p50_ms" "ms" (Hist.percentile r.latency_ms 50.);
    metric ~samples:n "latency_p99_ms" "ms" (Hist.percentile r.latency_ms 99.);
    metric ~samples:r.roots "throughput_msg_s" "roots/s" (throughput r);
    setup_metric r.setup;
  ]

(* ---- per-layer metric assembly ---- *)

let engine_layer led =
  let per_span x = if led.spans = 0 then 0. else x /. 1e3 /. float led.spans in
  let run_us_per_msg = if led.run_msgs = 0 then 0. else led.run_ns /. 1e3 /. float led.run_msgs in
  let lock = per_span led.lock_ns and eval = per_span led.eval_ns and apply = per_span led.apply_ns in
  [
    metric ~samples:led.run_msgs "engine.run_us_per_msg" "us" run_us_per_msg;
    metric ~samples:led.spans "engine.wait_us" "us" (per_span led.wait_ns);
    metric ~samples:led.spans "engine.lock_us" "us" lock;
    metric ~samples:led.spans "engine.decode_us" "us" (per_span led.decode_ns);
    metric ~samples:led.spans "engine.eval_us" "us" eval;
    metric ~samples:led.spans "engine.apply_us" "us" apply;
    metric ~samples:led.spans "engine.unattributed_us" "us" (run_us_per_msg -. lock -. eval -. apply);
    metric ~samples:(Hist.length led.maintain_ms) "engine.maintain_ms" "ms"
      (Hist.median led.maintain_ms);
  ]

let net_layer led =
  let n = Hist.length led.ack_ms in
  [
    metric ~samples:n "net.ack_p50_ms" "ms" (Hist.median led.ack_ms);
    metric ~samples:n "net.transport_us" "us" (Hist.median led.transport_us);
    metric ~samples:n "ingress.handler_us" "us" (Hist.median led.handler_us);
  ]

(* A traced run alternates untraced and traced quarters of the run time,
   so that drift of the machine's speed largely cancels from the tracing
   overhead. The first untraced quarter also holds the exact-count
   segment. *)
let quarters run =
  let q = !seconds /. 4. in
  let p1 = run ~trace:false ~first:true q in
  let t1 = run ~trace:true ~first:false q in
  let p2 = run ~trace:false ~first:false q in
  let t2 = run ~trace:true ~first:false q in
  (p1, t1, p2, t2)

(* The per-layer report of a traced run: timings from the traced quarters
   ([led], [traced]), exact counts and the overhead baseline from the
   untraced ones ([counts], [plain]), set-up timings from all. *)
let layer_report ~led ~bodies ~setups ~live_end ~counts ~plain ~traced =
  let open_ms = Hist.create () and deploy_ms = Hist.create () in
  List.iter
    (fun s ->
      Hist.merge open_ms s.open_ms;
      Hist.merge deploy_ms s.deploy_ms)
    setups;
  let docs = List.fold_left (fun n b -> n + List.length (Parser.parse_many b)) 0 (Array.to_list bodies) in
  let n = Hist.length open_ms in
  net_layer led
  @ [ metric ~samples:docs "xml.parse_us_per_doc" "us" (parse_us_per_doc bodies) ]
  @ engine_layer led
  @ [
      metric ~samples:n "store.open_ms" "ms" (Hist.median open_ms);
      metric ~samples:n "lang.deploy_ms" "ms" (Hist.median deploy_ms);
      metric "store.live_messages_end" "count" (float live_end);
    ]
  @ counts
  @ [ metric "obs.trace_overhead_pct" "%" (100. *. (plain -. traced) /. plain) ]

let run_live_workload name w =
  if not !traced then begin
    let r = run_live w ~name ~trace:false ~seconds:!seconds ~with_ledger:false (new_ledger ()) in
    let e2e = live_e2e r in
    print_report (Printf.sprintf "%s: end-to-end (seed %d, %.0f s)" name !seed !seconds) e2e;
    let attempted = r.roots + (w.warmup * w.docs) in
    (attempted, r.failed, e2e)
  end
  else begin
    let led = new_ledger () in
    let p1, t1, p2, t2 =
      quarters (fun ~trace ~first q ->
          run_live w ~name ~trace ~seconds:q ~with_ledger:first
            (if trace then led else new_ledger ()))
    in
    let runs = [ p1; t1; p2; t2 ] in
    let layers =
      layer_report ~led ~bodies:w.bodies ~setups:(List.map (fun r -> r.setup) runs)
        ~live_end:t2.live_end ~counts:p1.counts
        ~plain:(throughput p1 +. throughput p2) ~traced:(throughput t1 +. throughput t2)
    in
    print_report (Printf.sprintf "%s: per-layer ledger (seed %d, %.0f s)" name !seed !seconds) layers;
    let sum f = List.fold_left (fun n r -> n + f r) 0 runs in
    (sum (fun r -> r.roots + (w.warmup * w.docs)), sum (fun r -> r.failed), layers)
  end

(* ---- restart: WAL replay, recovery and a backlog drain ---- *)

let restart_roots = 1500
let maintain_every_batches = 96  (* drain calls between maintenance ticks *)

(* Write the durable backlog through the public ingress, one order per
   POST, with nothing drained, then close the store. *)
let write_backlog program bodies led ~trace dir =
  let setup = new_setup () in
  let handler = if trace then timed_handler else plain_handler in
  let node = open_node setup ~program ~trace:false ~handler:(Some handler) dir in
  let port = port node in
  let failed = ref 0 in
  Array.iter
    (fun body ->
      if not (post led ~record:trace ~port ~path:"/enqueue/orders" ~accepted:(fun _ -> true) body)
      then incr failed)
    bodies;
  expect_eq "restart backlog pending" ~want:(Array.length bodies) (S.pending_messages node.srv);
  close_node node;
  !failed

(* Cascade completion of the recovered roots, read from the store after
   every drain call. The messages a call created are read back (rids are
   dense, and maintenance runs only after the read, so none is collected
   yet) and charged to their root by their provenance's parent rid. The
   call's [n] processed messages are then looked up among the outstanding
   ones, oldest rid first, until all [n] are found: about [n] lookups a
   call when the scheduler runs the oldest messages first, and exact for
   any order. *)
module Cascades = struct
  type t = {
    store : Store.t;
    root_of : (int, int) Hashtbl.t;  (** root rid -> root index *)
    pending : int array;  (** per root: its messages not yet processed *)
    children : int array;  (** per root: derived messages seen *)
    mutable out_rid : int array;  (** outstanding rids, ascending from [head] *)
    mutable out_root : int array;
    mutable head : int;
    mutable len : int;
    mutable next_rid : int;  (** first rid not read back yet *)
    mutable strays : int;  (** derived messages without a recovered parent *)
    mutable unfound : int;  (** processed messages the scan did not find *)
  }

  let push t rid k =
    if t.len = Array.length t.out_rid then begin
      let live = t.len - t.head in
      let cap = max (Array.length t.out_rid) (2 * live) in
      let move a = Array.append (Array.sub a t.head live) (Array.make (cap - live) 0) in
      t.out_rid <- move t.out_rid;
      t.out_root <- move t.out_root;
      t.head <- 0;
      t.len <- live
    end;
    t.out_rid.(t.len) <- rid;
    t.out_root.(t.len) <- k;
    t.len <- t.len + 1

  let create store roots =
    let n = List.length roots in
    let t =
      {
        store;
        root_of = Hashtbl.create n;
        pending = Array.make n 1;
        children = Array.make n 0;
        out_rid = Array.make (8 * n) 0;
        out_root = Array.make (8 * n) 0;
        head = 0;
        len = 0;
        next_rid = 1 + List.fold_left max 0 roots;
        strays = 0;
        unfound = 0;
      }
    in
    List.iteri
      (fun k rid ->
        Hashtbl.replace t.root_of rid k;
        push t rid k)
      roots;
    t

  let processed t rid =
    match Store.get t.store rid with None -> true | Some m -> m.Store.processed

  (* After a drain call that processed [n] messages: [complete k] for every
     root whose whole cascade is now processed. *)
  let update t ~n ~complete =
    let rec read_back () =
      match Store.get t.store t.next_rid with
      | None -> ()
      | Some m ->
        let _, _, prov = Demaq.Message.decode_extra m.Store.extra in
        (match Hashtbl.find_opt t.root_of prov.Demaq.Message.p_parent with
         | Some k ->
           t.children.(k) <- t.children.(k) + 1;
           t.pending.(k) <- t.pending.(k) + 1;
           push t t.next_rid k
         | None -> t.strays <- t.strays + 1);
        t.next_rid <- t.next_rid + 1;
        read_back ()
    in
    read_back ();
    (* processed entries leave; the kept ones close up behind the scan *)
    let found = ref 0 and kept = ref t.head and i = ref t.head in
    while !found < n && !i < t.len do
      let rid = t.out_rid.(!i) and k = t.out_root.(!i) in
      if processed t rid then begin
        incr found;
        t.pending.(k) <- t.pending.(k) - 1;
        if t.pending.(k) = 0 then complete k
      end
      else begin
        t.out_rid.(!kept) <- rid;
        t.out_root.(!kept) <- k;
        incr kept
      end;
      incr i
    done;
    let nkept = !kept - t.head in
    Array.blit t.out_rid t.head t.out_rid (!i - nkept) nkept;
    Array.blit t.out_root t.head t.out_root (!i - nkept) nkept;
    t.head <- !i - nkept;
    t.unfound <- t.unfound + (n - !found)
end

type cycle = {
  drain_s : float;  (** node time from ready to quiescent *)
  incomplete : int;  (** roots whose cascade did not complete *)
  live_end : int;
}

(* One restart: copy the backlog, reopen (WAL replay), redeploy (recovery
   rescheduling), and drain every cascade, one group-commit batch per
   [Server.run] call, with a maintenance tick every
   [maintain_every_batches] calls.

   Each root's latency runs from the restart (store open) to the end of the
   drain call after which its root and all five derived messages are
   processed; it goes into [latency], which the caller resets before each
   restart. The clock counts node time only, as the process's CPU time
   (restart runs on one thread and touches no network, so its CPU time is
   the node's work, without the waits a shared machine adds):
   the harness's own reading of the store between calls is left out, of
   latency and of drain time. *)
let restart_cycle ~program ~backlog ~setup ~latency ~trace ~ledger led =
  let dir = Filename.concat !work_dir "restart-node" in
  copy_dir backlog dir;
  (* a restarted process starts from an empty heap; compacting here keeps
     one restart's garbage out of the next *)
  Gc.compact ();
  let node = open_node ~clock:cpu_ns setup ~program ~trace ~handler:None dir in
  let ready_ns = node.ready_ms *. 1e6 in
  led.last_rid <- -1;
  let a = if ledger then Some (snapshot node.srv) else None in
  (* the exact-count cycle does not track cascades, whose reading of the
     store would add to its allocation count; the counts checked below
     still prove that every cascade completed *)
  let cascades =
    if ledger then None else Some (Cascades.create node.store (Store.queue_rids node.store "orders"))
  in
  let node_ns = ref ready_ns and complete = ref 0 in
  let on_complete _ =
    incr complete;
    Hist.add latency (!node_ns /. 1e6)
  in
  let rec drain calls =
    let f = Speed.factor () in
    let t = cpu_ns () in
    let n = S.run ~max_steps:batch_size node.srv in
    let run_ns = float (cpu_ns () - t) *. f in
    node_ns := !node_ns +. run_ns;
    led.run_ns <- led.run_ns +. run_ns;
    led.run_msgs <- led.run_msgs + n;
    Option.iter (fun c -> Cascades.update c ~n ~complete:on_complete) cascades;
    if calls mod maintain_every_batches = 0 || n = 0 then begin
      let tm = cpu_ns () in
      (* no compaction: every restart begins from a fresh copy, so the
         tombstones a drain leaves are bounded by the backlog *)
      maintain ~gc_budget:2048 ~compact:0 node.srv;
      let dt = float (cpu_ns () - tm) *. f in
      node_ns := !node_ns +. dt;
      if trace then begin
        Hist.add led.maintain_ms (dt /. 1e6);
        harvest led node.srv
      end
    end;
    if calls mod probe_every = 0 then Speed.probe ();
    if n > 0 then drain (calls + 1)
  in
  drain 1;
  let counts =
    match a with
    | Some a -> ledger_counts ~roots:restart_roots a (snapshot node.srv)
    | None -> []
  in
  let st = S.stats node.srv in
  check_clean "restart" st;
  expect_eq "restart processed" ~want:(6 * restart_roots) st.S.processed;
  expect_eq "restart created" ~want:(5 * restart_roots) st.S.messages_created;
  expect_eq "restart rule evaluations" ~want:(5 * restart_roots) st.S.rule_evaluations;
  expect_eq "restart unprocessed" ~want:0 (S.pending_messages node.srv);
  Option.iter
    (fun (c : Cascades.t) ->
      expect_eq "restart derived messages without a recovered parent" ~want:0 c.strays;
      expect_eq "restart processed messages not found outstanding" ~want:0 c.unfound;
      expect "restart: a root did not derive exactly 5 messages"
        (Array.for_all (fun n -> n = 5) c.children))
    cascades;
  (* every recovered order is decoded once, lazily; its derived messages
     trigger no rule and are never decoded *)
  let _, decodes, _ = S.admission_stats node.srv in
  expect_eq "restart decodes" ~want:restart_roots decodes;
  let live_end = (Store.stats node.store).Store.live_messages in
  close_node node;
  rm_rf dir;
  ( {
      drain_s = (!node_ns -. ready_ns) /. 1e9;
      incomplete = (if Option.is_none cascades then 0 else restart_roots - !complete);
      live_end;
    },
    counts )

type restart_run = {
  r_setup : setup;
  r_p50_ms : Hist.t;  (** each restart's median root latency *)
  r_p99_ms : Hist.t;  (** each restart's p99 *)
  r_throughput : float;  (** recovered roots per second of drain time *)
  r_cycles : int;
  r_failed : int;
  r_counts : metric list;
  r_live_end : int;
}

let min_cycles = 3

let run_restart ~program ~backlog ~trace ~seconds ~with_ledger led =
  let setup = new_setup () in
  (* the first cycle warms up and is not counted *)
  let warm, _ =
    restart_cycle ~program ~backlog ~setup:(new_setup ()) ~latency:(Hist.create ()) ~trace
      ~ledger:false (new_ledger ())
  in
  let latency = Hist.create () and p50 = Hist.create () and p99 = Hist.create () in
  let cycles = ref [] and counts = ref [] in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while now_ns () < deadline || List.length !cycles < min_cycles do
    Hist.reset latency;
    let c, cs =
      restart_cycle ~program ~backlog ~setup ~latency ~trace
        ~ledger:(with_ledger && !cycles = []) led
    in
    if Hist.length latency > 0 then begin
      Hist.add p50 (Hist.median latency);
      Hist.add p99 (Hist.percentile latency 99.)
    end;
    if cs <> [] then counts := cs;
    cycles := c :: !cycles
  done;
  let drain_s = List.fold_left (fun t c -> t +. c.drain_s) 0. !cycles in
  {
    r_setup = setup;
    r_p50_ms = p50;
    r_p99_ms = p99;
    r_throughput = float (restart_roots * List.length !cycles) /. drain_s;
    r_cycles = List.length !cycles;
    r_failed = List.fold_left (fun n c -> n + c.incomplete) warm.incomplete !cycles;
    r_counts = !counts;
    r_live_end = (List.hd !cycles).live_end;
  }

let run_restart_workload () =
  let program = fanout_program () in
  let bodies = order_bodies program ~offset:50_000 restart_roots in
  let led = new_ledger () in
  let backlog = fresh_dir "restart-backlog" in
  let backlog_failed = write_backlog program bodies led ~trace:!traced backlog in
  let attempted r = (r.r_cycles + 1) * restart_roots in
  if not !traced then begin
    let r = run_restart ~program ~backlog ~trace:false ~seconds:!seconds ~with_ledger:false led in
    (* a restart's percentiles over its own roots, the median over the
       restarts: slow restarts set a pooled p99 alone, and how many of
       them a run meets follows the host more than the program *)
    let n = Hist.length r.r_p50_ms * restart_roots in
    let e2e =
      [
        metric ~samples:n "latency_p50_ms" "ms" (Hist.median r.r_p50_ms);
        metric ~samples:n "latency_p99_ms" "ms" (Hist.median r.r_p99_ms);
        metric ~samples:r.r_cycles "throughput_msg_s" "roots/s" r.r_throughput;
        setup_metric r.r_setup;
      ]
    in
    print_report (Printf.sprintf "restart: end-to-end (seed %d, %.0f s)" !seed !seconds) e2e;
    rm_rf backlog;
    (attempted r + restart_roots, backlog_failed + r.r_failed, e2e)
  end
  else begin
    let p1, t1, p2, t2 =
      quarters (fun ~trace ~first q ->
          run_restart ~program ~backlog ~trace ~seconds:q ~with_ledger:first
            (if trace then led else new_ledger ()))
    in
    let runs = [ p1; t1; p2; t2 ] in
    let layers =
      layer_report ~led ~bodies ~setups:(List.map (fun r -> r.r_setup) runs)
        ~live_end:t2.r_live_end ~counts:p1.r_counts
        ~plain:(p1.r_throughput +. p2.r_throughput) ~traced:(t1.r_throughput +. t2.r_throughput)
    in
    print_report (Printf.sprintf "restart: per-layer ledger (seed %d, %.0f s)" !seed !seconds) layers;
    rm_rf backlog;
    let sum f = List.fold_left (fun n r -> n + f r) 0 runs in
    (sum attempted + restart_roots, backlog_failed + sum (fun r -> r.r_failed), layers)
  end

let () =
  let attempted, failed, metrics =
    match !workload with
    | "fanout" -> run_live_workload "fanout" (fanout_workload ())
    | "filter" -> run_live_workload "filter" (filter_workload ())
    | "restart" -> run_restart_workload ()
    | w ->
      Printf.eprintf "unknown workload %S (fanout, filter, restart)\n" w;
      exit 2
  in
  rm_rf !work_dir;
  Printf.printf
    "speed probes: core median %.2f us (nominal %.0f), memory median %.2f us (nominal %.0f), %d each\n"
    (Hist.median Speed.core.all_us) (Speed.core_nominal_ns /. 1e3)
    (Hist.median Speed.memory.all_us) (Speed.memory_nominal_ns /. 1e3)
    (Hist.length Speed.core.all_us);
  if not (print_result ~attempted ~failed metrics) then exit 1
