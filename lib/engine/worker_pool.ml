(* The worker pool: N OCaml 5 domains draining the dispatcher.

   Gray's queued-transaction-processing shape — a pool of servers pulling
   independent units of work off a shared queue — mapped onto domains.
   The pool owns the dispatcher and a monitor (mutex + condition): every
   dispatcher access goes through the monitor, workers block on the
   condition when all remaining work conflicts with in-flight messages,
   and every completion or new scheduling broadcasts so blocked workers
   re-examine the heap.

   Domains are spawned per [drain] call and joined before it returns
   (spawn cost is microseconds against a batch of message transactions;
   keeping domains parked between drains would pin OCaml's limited domain
   budget for no gain). Two paths are special-cased to run inline on the
   calling thread with no domains at all:

   - [workers = 1]: the deterministic mode. One worker that completes
     each message before asking for the next can never observe a
     conflict, so the dispatcher degenerates to the seed scheduler's
     exact pop order and the engine's observable behaviour (trace order,
     stats, externalization order) matches the single-threaded engine.
   - [budget = 1] (single-step driving, e.g. [Server.step]): same
     argument, regardless of the configured worker count.

   The budget counts dispatched transactions: only rids whose processing
   callback reports at least one processed message count; rescheduled
   duplicates and collected rids are skipped for free. One transaction
   may process several messages (the dispatched one plus the inert
   messages it created), and the drain reports both totals. A worker
   stops only when the budget is exhausted by *completed* work — while
   claimed work is still in flight it waits, because an in-flight skip
   hands its budget slot back. *)

module Metrics = Demaq_obs.Metrics

let log = Logs.Src.create "demaq.worker_pool" ~doc:"Demaq worker pool"

module Log = (val Logs.src_log log : Logs.LOG)

type worker_stats = {
  mutable w_processed : int;  (* messages this worker's transactions processed *)
  mutable w_idle : int;  (* times it blocked waiting for compatible work *)
  mutable w_drains : int;  (* drain calls it participated in *)
}

type t = {
  mu : Mutex.t;
  cond : Condition.t;
  dsp : Dispatch.t;
  workers : int;
  wstats : worker_stats array;
  registry : Metrics.registry;
      (* worker i records into shard i+1; shard 0 stays the coordinator's *)
  (* per-drain monitor state, guarded by [mu] *)
  mutable in_flight : int;
  mutable done_ : int;  (* transactions *)
  mutable messages : int;
  mutable budget : int;
  mutable failure : exn option;
  mutable picker : (int -> int) option;
      (* simulation hook: seeded candidate chooser for inline drains *)
}

let create ~registry ~workers () =
  let workers = max 1 (min workers 64) in
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    dsp = Dispatch.create ();
    workers;
    wstats =
      Array.init workers (fun _ -> { w_processed = 0; w_idle = 0; w_drains = 0 });
    registry;
    in_flight = 0;
    done_ = 0;
    messages = 0;
    budget = 0;
    failure = None;
    picker = None;
  }

let instrument t reg =
  (* dispatcher depth is the engine's backlog signal; parked counts how
     much of it is blocked on conflicts rather than waiting for a slot *)
  Metrics.gauge_fn reg "demaq_dispatch_queued"
    ~help:"Messages in the dispatcher priority heap" (fun () ->
      float_of_int (Mutex.protect t.mu (fun () -> Dispatch.queued t.dsp)));
  Metrics.gauge_fn reg "demaq_dispatch_parked"
    ~help:"Messages parked on an in-flight conflict resource" (fun () ->
      float_of_int (Mutex.protect t.mu (fun () -> Dispatch.parked t.dsp)));
  Array.iteri
    (fun i w ->
      let name fam = Printf.sprintf "%s{worker=\"%d\"}" fam i in
      Metrics.counter_fn reg
        (name "demaq_worker_processed_total")
        ~help:"Messages processed per worker slot" (fun () ->
          float_of_int w.w_processed);
      Metrics.counter_fn reg
        (name "demaq_worker_idle_total")
        ~help:"Times a worker blocked waiting for compatible work"
        (fun () -> float_of_int w.w_idle);
      Metrics.counter_fn reg
        (name "demaq_worker_drains_total")
        ~help:"Drain calls a worker participated in" (fun () ->
          float_of_int w.w_drains))
    t.wstats

let workers t = t.workers
let set_picker t picker = t.picker <- picker
let locked t f = Mutex.protect t.mu f

let schedule t ~priority ~resources ~stamp rid =
  locked t (fun () ->
      Dispatch.schedule t.dsp ~priority ~resources ~stamp rid;
      Condition.broadcast t.cond)

let pending t = locked t (fun () -> Dispatch.pending t.dsp)

let worker_stats t =
  Array.to_list
    (Array.map
       (fun w ->
         { w_processed = w.w_processed; w_idle = w.w_idle; w_drains = w.w_drains })
       t.wstats)

type drained = { transactions : int; messages : int }

(* ---- inline (deterministic) drain ---- *)

let drain_inline t ~budget ~process =
  let ws = t.wstats.(0) in
  ws.w_drains <- ws.w_drains + 1;
  let done_ = ref 0 and messages = ref 0 in
  let continue_ = ref true in
  while !continue_ && !done_ < budget do
    match locked t (fun () -> Dispatch.next ?pick:t.picker t.dsp) with
    | Dispatch.Ready e ->
      let n =
        match process e with
        | n -> n
        | exception exn ->
          locked t (fun () -> Dispatch.complete t.dsp e);
          raise exn
      in
      locked t (fun () -> Dispatch.complete t.dsp e);
      if n > 0 then begin
        incr done_;
        messages := !messages + n;
        ws.w_processed <- ws.w_processed + n
      end
    | Dispatch.Busy | Dispatch.Empty ->
      (* Busy is impossible with nothing in flight; treat it as drained *)
      continue_ := false
  done;
  { transactions = !done_; messages = !messages }

(* ---- parallel drain ---- *)

let worker_loop t i ~process =
  (* route this domain's metric recordings to its own shard; the
     coordinator (and inline drains) keep shard 0 *)
  Metrics.bind_shard t.registry (i + 1);
  let ws = t.wstats.(i) in
  ws.w_drains <- ws.w_drains + 1;
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.mu;
    let rec decide () =
      if t.failure <> None || t.done_ >= t.budget then `Stop
      else if t.done_ + t.in_flight >= t.budget then
        if t.in_flight = 0 then `Stop
        else begin
          (* budget provisionally full, but an in-flight skip would hand a
             slot back: wait for completions rather than leave early *)
          ws.w_idle <- ws.w_idle + 1;
          Condition.wait t.cond t.mu;
          decide ()
        end
      else
        match Dispatch.next t.dsp with
        | Dispatch.Ready e ->
          t.in_flight <- t.in_flight + 1;
          `Run e
        | Dispatch.Busy | Dispatch.Empty ->
          if t.in_flight = 0 then `Stop
          else begin
            (* all remaining work conflicts with (or may be created by)
               running messages; their completion broadcasts *)
            ws.w_idle <- ws.w_idle + 1;
            Condition.wait t.cond t.mu;
            decide ()
          end
    in
    let action = decide () in
    Mutex.unlock t.mu;
    match action with
    | `Stop -> continue_ := false
    | `Run e ->
      let result = match process e with n -> Ok n | exception exn -> Error exn in
      Mutex.lock t.mu;
      t.in_flight <- t.in_flight - 1;
      Dispatch.complete t.dsp e;
      (match result with
       | Ok n when n > 0 ->
         t.done_ <- t.done_ + 1;
         t.messages <- t.messages + n;
         ws.w_processed <- ws.w_processed + n
       | Ok _ -> ()
       | Error exn -> if t.failure = None then t.failure <- Some exn);
      Condition.broadcast t.cond;
      Mutex.unlock t.mu
  done

let drain_parallel t ~budget ~process =
  t.done_ <- 0;
  t.messages <- 0;
  t.in_flight <- 0;
  t.budget <- budget;
  t.failure <- None;
  Log.debug (fun f -> f "parallel drain: budget %d across %d workers" budget t.workers);
  let doms =
    Array.init t.workers (fun i -> Domain.spawn (fun () -> worker_loop t i ~process))
  in
  Array.iter Domain.join doms;
  match t.failure with
  | Some e -> raise e
  | None -> { transactions = t.done_; messages = t.messages }

let drain t ~budget ~process =
  if budget <= 0 then { transactions = 0; messages = 0 }
  else if t.workers = 1 || budget = 1 then drain_inline t ~budget ~process
  else drain_parallel t ~budget ~process
