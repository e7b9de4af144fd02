(* Causal flow store: assembles the provenance edges the engine observes
   (rid, queue, flow id, parent rid, causing rule) into per-flow cascade
   trees with critical-path timing. It keeps no spans: readers join each
   node with its span while the bounded span ring still holds it. The
   store is bounded on both axes — at most [max_flows] flows are
   retained (FIFO eviction: a long-running node forgets the oldest
   cascades first) and at most [max_nodes] messages per flow (fanouts
   beyond the cap are counted, not stored) — so tracing every message
   cannot grow memory without bound. *)

type node = {
  n_rid : int;
  n_queue : string;
  n_flow : string;
  n_parent : int;  (* rid of the causing message; -1 = cascade root *)
  n_cause : string;  (* rule name, or origin kind for roots *)
  n_span : Trace.span option;  (* joined from the span ring by readers *)
}

(* Nodes live in a plain list (newest first): flows are small (bounded
   at [max_nodes], typically a handful of hops), and a list keeps the
   per-enqueue cost of [observe] — which runs on the engine's hot path
   for every traced message — to one cons, with dedup delegated to the
   O(1) [by_rid] index (rids are globally unique). *)
type flow = {
  f_id : string;
  mutable f_nodes_rev : node list;  (* newest first (insertion order) *)
  mutable f_count : int;
  mutable f_dropped : int;  (* nodes beyond [max_nodes], counted not kept *)
  mutable f_first_tick : int;
  mutable f_last_tick : int;
}

(* [observe] runs on the engine's hot path, per enqueue, so it may not
   pay for flow lookup, node search or eviction there: it only stages the
   edge in a fixed ring, and the staged edges are folded into the indexed
   structures when someone reads ([nodes], [summaries], ... — rare
   CLI/HTTP traffic). A burst longer than the ring between two reads
   overwrites the oldest staged edges; those cascades simply arrive
   truncated in memory (the durable store still holds their
   provenance). *)
type edge = {
  e_rid : int;
  e_queue : string;
  e_flow : string;
  e_parent : int;
  e_cause : string;
  e_tick : int;
}

let log_capacity = 4096

type t = {
  max_flows : int;
  max_nodes : int;
  mu : Mutex.t;
  flows : (string, flow) Hashtbl.t;
  by_rid : (int, node) Hashtbl.t;  (* reverse index: rid -> its node *)
  evict_q : string Queue.t;  (* flow ids, oldest first *)
  mutable evicted : int;  (* flows dropped by FIFO eviction *)
  log : edge array;  (* staging ring, drained into the index on read *)
  mutable log_start : int;  (* oldest undrained record *)
  mutable log_len : int;  (* undrained records, <= log_capacity *)
  mutable overwritten : int;  (* staged edges lost to ring wrap *)
}

let create ?(max_flows = 256) ?(max_nodes_per_flow = 512) () =
  {
    max_flows = max 1 max_flows;
    max_nodes = max 1 max_nodes_per_flow;
    mu = Mutex.create ();
    flows = Hashtbl.create 64;
    by_rid = Hashtbl.create 256;
    evict_q = Queue.create ();
    evicted = 0;
    log =
      Array.make log_capacity
        { e_rid = 0; e_queue = ""; e_flow = ""; e_parent = -1; e_cause = "";
          e_tick = 0 };
    log_start = 0;
    log_len = 0;
    overwritten = 0;
  }

(* Stage one edge in the ring (assumes [t.mu]). *)
let stage_locked t e =
  let i = (t.log_start + t.log_len) mod log_capacity in
  t.log.(i) <- e;
  if t.log_len = log_capacity then begin
    t.log_start <- (t.log_start + 1) mod log_capacity;
    t.overwritten <- t.overwritten + 1
  end
  else t.log_len <- t.log_len + 1

let evict_locked t =
  while Hashtbl.length t.flows > t.max_flows do
    let victim = Queue.pop t.evict_q in
    (match Hashtbl.find_opt t.flows victim with
     | Some f ->
       List.iter (fun n -> Hashtbl.remove t.by_rid n.n_rid) f.f_nodes_rev;
       Hashtbl.remove t.flows victim;
       t.evicted <- t.evicted + 1
     | None -> ())
  done

let observe t ~rid ~queue ~flow ~parent ~cause ~tick =
  if flow <> "" then
    Mutex.protect t.mu @@ fun () ->
    stage_locked t
      { e_rid = rid; e_queue = queue; e_flow = flow; e_parent = parent;
        e_cause = cause; e_tick = tick }

(* Fold one staged edge into the flow index (assumes [t.mu]). *)
let index_edge_locked t (e : edge) =
  let rid = e.e_rid and flow = e.e_flow and tick = e.e_tick in
  if not (Hashtbl.mem t.by_rid rid) then begin
    let f =
      match Hashtbl.find_opt t.flows flow with
      | Some f -> f
      | None ->
        let f =
          {
            f_id = flow;
            f_nodes_rev = [];
            f_count = 0;
            f_dropped = 0;
            f_first_tick = tick;
            f_last_tick = tick;
          }
        in
        Hashtbl.replace t.flows flow f;
        Queue.push flow t.evict_q;
        evict_locked t;
        f
    in
    f.f_last_tick <- max f.f_last_tick tick;
    f.f_first_tick <- min f.f_first_tick tick;
    if f.f_count >= t.max_nodes then f.f_dropped <- f.f_dropped + 1
    else begin
      let n =
        {
          n_rid = rid;
          n_queue = e.e_queue;
          n_flow = flow;
          n_parent = e.e_parent;
          n_cause = e.e_cause;
          n_span = None;
        }
      in
      f.f_nodes_rev <- n :: f.f_nodes_rev;
      f.f_count <- f.f_count + 1;
      Hashtbl.replace t.by_rid rid n
    end
  end

let drain_locked t =
  for k = 0 to t.log_len - 1 do
    index_edge_locked t t.log.((t.log_start + k) mod log_capacity)
  done;
  t.log_start <- 0;
  t.log_len <- 0

let flow_of_rid t rid =
  Mutex.protect t.mu @@ fun () ->
  drain_locked t;
  Option.map (fun n -> n.n_flow) (Hashtbl.find_opt t.by_rid rid)

let nodes t flow_id =
  Mutex.protect t.mu @@ fun () ->
  drain_locked t;
  match Hashtbl.find_opt t.flows flow_id with
  | None -> []
  | Some f -> List.rev f.f_nodes_rev (* oldest first *)

let dropped t flow_id =
  Mutex.protect t.mu @@ fun () ->
  drain_locked t;
  match Hashtbl.find_opt t.flows flow_id with
  | None -> 0
  | Some f -> f.f_dropped

let evicted t =
  Mutex.protect t.mu @@ fun () ->
  drain_locked t;
  t.evicted

let overwritten t = Mutex.protect t.mu @@ fun () -> t.overwritten

type summary = {
  s_flow : string;
  s_nodes : int;
  s_dropped : int;
  s_first_tick : int;
  s_last_tick : int;
}

(* Newest enqueue first. *)
let summaries t =
  Mutex.protect t.mu @@ fun () ->
  drain_locked t;
  Hashtbl.fold
    (fun _ f acc ->
      {
        s_flow = f.f_id;
        s_nodes = f.f_count;
        s_dropped = f.f_dropped;
        s_first_tick = f.f_first_tick;
        s_last_tick = f.f_last_tick;
      }
      :: acc)
    t.flows []
  |> List.sort (fun a b ->
         match compare b.s_last_tick a.s_last_tick with
         | 0 -> compare a.s_flow b.s_flow
         | c -> c)

(* ---- tree assembly (pure: works on any node list, so the engine can
   merge durable-store provenance with ring spans after a restart) ---- *)

type tree = { t_node : node; t_children : tree list }

let forest_of_nodes ns =
  let present = Hashtbl.create (List.length ns * 2) in
  List.iter (fun n -> Hashtbl.replace present n.n_rid ()) ns;
  let kids = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if n.n_parent >= 0 && Hashtbl.mem present n.n_parent then
        Hashtbl.replace kids n.n_parent
          (n :: (Option.value ~default:[] (Hashtbl.find_opt kids n.n_parent))))
    ns;
  let rec build n =
    let children =
      Option.value ~default:[] (Hashtbl.find_opt kids n.n_rid)
      |> List.sort (fun a b -> compare a.n_rid b.n_rid)
    in
    { t_node = n; t_children = List.map build children }
  in
  ns
  |> List.filter (fun n -> n.n_parent < 0 || not (Hashtbl.mem present n.n_parent))
  |> List.sort (fun a b -> compare a.n_rid b.n_rid)
  |> List.map build

(* Busy time: the phases the worker actually spent on the message. *)
let busy_ns (s : Trace.span) =
  s.Trace.sp_lock_ns + s.Trace.sp_eval_ns + s.Trace.sp_apply_ns
  + s.Trace.sp_barrier_ns

let node_cost n =
  match n.n_span with None -> 0 | Some s -> s.Trace.sp_wait_ns + busy_ns s

(* The root-to-leaf path maximizing cumulative wait + busy time — where
   the flow's end-to-end latency actually went. *)
let rec critical_path tr =
  let own = node_cost tr.t_node in
  match tr.t_children with
  | [] -> (own, [ tr.t_node.n_rid ])
  | cs ->
    let best_ns, best_path =
      List.fold_left
        (fun (bn, bp) c ->
          let n, p = critical_path c in
          if n > bn then (n, p) else (bn, bp))
        (min_int, []) cs
    in
    (own + best_ns, tr.t_node.n_rid :: best_path)

(* ---- rendering ---- *)

let fmt_ns ns =
  if ns <= 0 then "-"
  else if ns < 1_000 then Printf.sprintf "%dns" ns
  else if ns < 1_000_000 then Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  else if ns < 1_000_000_000 then
    Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  else Printf.sprintf "%.3fs" (float_of_int ns /. 1e9)

let node_line ?(on_critical = false) n =
  let timing =
    match n.n_span with
    | None -> "pending"  (* observed but not yet (or never) processed *)
    | Some s ->
      let outcome =
        match s.Trace.sp_outcome with
        | Trace.Committed -> "committed"
        | Trace.Aborted r -> "ABORTED:" ^ r
      in
      Printf.sprintf "%s wait=%s lock=%s eval=%s apply=%s" outcome
        (fmt_ns s.Trace.sp_wait_ns) (fmt_ns s.Trace.sp_lock_ns)
        (fmt_ns s.Trace.sp_eval_ns)
        (fmt_ns (s.Trace.sp_apply_ns + s.Trace.sp_barrier_ns))
  in
  let cause = if n.n_cause = "" then "?" else n.n_cause in
  Printf.sprintf "#%d %s  <-%s  [%s]%s" n.n_rid n.n_queue cause timing
    (if on_critical then "  *" else "")

let render_ascii ?(header = true) flow_id ns =
  let buf = Buffer.create 1024 in
  let forest = forest_of_nodes ns in
  let crit =
    List.fold_left
      (fun (bn, bp) tr ->
        let n, p = critical_path tr in
        if n > bn then (n, p) else (bn, bp))
      (min_int, []) forest
  in
  let crit_ns, crit_path = crit in
  if header then
    Buffer.add_string buf
      (Printf.sprintf "flow %s  %d message%s  critical path %s (%s)\n" flow_id
         (List.length ns)
         (if List.length ns = 1 then "" else "s")
         (fmt_ns (max 0 crit_ns))
         (String.concat " -> "
            (List.map (fun r -> "#" ^ string_of_int r) crit_path)));
  let rec go prefix last tr =
    let connector = if prefix = "" then "" else if last then "`-- " else "|-- " in
    Buffer.add_string buf prefix;
    Buffer.add_string buf connector;
    Buffer.add_string buf
      (node_line ~on_critical:(List.mem tr.t_node.n_rid crit_path) tr.t_node);
    Buffer.add_char buf '\n';
    let child_prefix =
      if prefix = "" then "  " else prefix ^ (if last then "    " else "|   ")
    in
    let rec each = function
      | [] -> ()
      | [ c ] -> go child_prefix true c
      | c :: rest ->
        go child_prefix false c;
        each rest
    in
    each tr.t_children
  in
  List.iter (go "" true) forest;
  Buffer.contents buf

let node_json n =
  let span =
    match n.n_span with None -> "null" | Some s -> Trace.span_json s
  in
  Printf.sprintf
    "{\"rid\":%d,\"queue\":\"%s\",\"parent\":%d,\"cause\":\"%s\",\"span\":%s}"
    n.n_rid (Trace.json_escape n.n_queue) n.n_parent
    (Trace.json_escape n.n_cause) span

let render_json flow_id ns =
  let forest = forest_of_nodes ns in
  let crit_ns, crit_path =
    List.fold_left
      (fun (bn, bp) tr ->
        let n, p = critical_path tr in
        if n > bn then (n, p) else (bn, bp))
      (min_int, []) forest
  in
  let rec tree_json tr =
    Printf.sprintf "{\"node\":%s,\"children\":[%s]}" (node_json tr.t_node)
      (String.concat "," (List.map tree_json tr.t_children))
  in
  Printf.sprintf
    "{\"flow\":\"%s\",\"messages\":%d,\"critical_path_ns\":%d,\
     \"critical_path\":[%s],\"roots\":[%s]}"
    (Trace.json_escape flow_id) (List.length ns)
    (max 0 crit_ns)
    (String.concat "," (List.map string_of_int crit_path))
    (String.concat "," (List.map tree_json forest))

let summary_json s =
  Printf.sprintf
    "{\"flow\":\"%s\",\"messages\":%d,\"dropped\":%d,\"first_tick\":%d,\
     \"last_tick\":%d}"
    (Trace.json_escape s.s_flow) s.s_nodes s.s_dropped s.s_first_tick
    s.s_last_tick
