(* The message scheduler (§4.4.2) and queue-partitioned dispatcher.

   The paper's scheduler "maintains a list of all unprocessed messages and
   chooses the next message to be handled, considering both their temporal
   ordering and the priority of the containing queues": here a binary heap
   ordered by (queue priority descending, arrival sequence ascending), so
   higher-priority messages overtake older lower-priority ones and FIFO
   holds within a priority level.

   Gray's "Queues Are Databases" runs a pool of servers draining one queue
   set in parallel; what keeps that sound in Demaq is a partitioning rule
   layered over that order: two messages that could
   conflict — same queue, or overlapping slices under slice-granularity
   locking — must never run concurrently, and within a queue the arrival
   order must survive parallel execution.

   Each scheduled entry carries its conflict resources (queue name plus
   slice memberships, computed by the executor) and its schedule stamp.
   [next] pops the heap; an entry whose resources are all free
   starts running, claims them and is handed out, an entry blocked on an
   in-flight resource is parked on that resource. [complete] takes the
   handed-out entry back, releases its resources and re-pushes every
   entry parked on them with its ORIGINAL sequence number, so a parked
   message re-enters the heap ahead of anything that arrived after it:
   per-queue FIFO and priority order are preserved exactly. The entry is
   the only per-message state, so nothing here is keyed by rid.

   Invariant: a parked entry is always attached to an in-flight resource,
   so [Busy] can only be observed while some message is running — a
   single worker that completes each message before asking for the next
   can never park anything, which makes one-worker mode degenerate to the
   seed scheduler's exact pop order.

   The dispatcher is NOT internally synchronized: the worker pool
   serializes all access under its own monitor mutex. *)

type entry = {
  rid : int;
  priority : int;
  seq : int;
  resources : string list;
  stamp : int;
}

type slot = Ready of entry | Busy | Empty

type t = {
  heap : entry Heap.t;
  mutable next_seq : int;  (* arrival sequence of the next scheduled entry *)
  parked : (string, entry Queue.t) Hashtbl.t;
      (* busy resource -> entries waiting for it, in pop (priority) order *)
  in_flight : (string, unit) Hashtbl.t;  (* resources of running messages *)
  mutable parked_count : int;
}

let compare_entries a b =
  (* higher priority first, then earlier arrival *)
  let c = compare b.priority a.priority in
  if c <> 0 then c else compare a.seq b.seq

let create () =
  {
    heap = Heap.create compare_entries;
    next_seq = 0;
    parked = Hashtbl.create 16;
    in_flight = Hashtbl.create 16;
    parked_count = 0;
  }

let schedule t ~priority ~resources ~stamp rid =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.heap { rid; priority; seq; resources; stamp }

let park t e busy =
  let q =
    match Hashtbl.find_opt t.parked busy with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.parked busy q;
      q
  in
  Queue.push e q;
  t.parked_count <- t.parked_count + 1

let claim t e =
  List.iter (fun r -> Hashtbl.replace t.in_flight r ()) e.resources;
  Ready e

let busy_resource t e =
  List.find_opt (fun r -> Hashtbl.mem t.in_flight r) e.resources

let rec next_fifo t =
  match Heap.pop t.heap with
  | None -> if t.parked_count > 0 then Busy else Empty
  | Some e -> (
    match busy_resource t e with
    | Some busy ->
      park t e busy;
      next_fifo t
    | None -> claim t e)

(* Picked mode (simulation): instead of the heap's deterministic head,
   choose pseudo-randomly among every message that could LEGALLY run next
   — the runnable entries of the top priority level, keeping only the
   earliest entry per conflict resource. Restricting candidates this way
   makes priority and per-queue FIFO order hold by construction (exactly
   as in FIFO mode), while still exercising every cross-queue
   interleaving a real multi-worker run could produce. [f] is called once
   per successful choice with the candidate count; the schedule replays
   bit-identically when [f] is a seeded generator. *)
let rec next_picked t f =
  match Heap.pop t.heap with
  | None -> if t.parked_count > 0 then Busy else Empty
  | Some first ->
    let prio = first.priority in
    (* candidates (reversed); entries runnable but behind an earlier
       candidate on some resource go back untouched *)
    let candidates = ref [] in
    let n_candidates = ref 0 in
    let deferred = ref [] in
    let classify e =
      match busy_resource t e with
      | Some busy -> park t e busy
      | None ->
        if
          List.exists
            (fun r -> List.exists (fun c -> List.mem r c.resources) !candidates)
            e.resources
        then deferred := e :: !deferred
        else begin
          candidates := e :: !candidates;
          incr n_candidates
        end
    in
    classify first;
    let rec drain () =
      match Heap.peek t.heap with
      | Some e when e.priority = prio ->
        ignore (Heap.pop t.heap);
        classify e;
        drain ()
      | _ -> ()
    in
    drain ();
    (match List.rev !candidates with
     | [] ->
       (* the whole level parked on in-flight resources (deferral needs a
          candidate, so [deferred] is empty too); fall through to the next
          priority level *)
       next_picked t f
     | cands ->
       let n = !n_candidates in
       let k = (((f n) mod n) + n) mod n in
       List.iteri (fun i e -> if i <> k then Heap.push t.heap e) cands;
       List.iter (Heap.push t.heap) !deferred;
       claim t (List.nth cands k))

let next ?pick t =
  match pick with None -> next_fifo t | Some f -> next_picked t f

let complete t e =
  List.iter
    (fun r ->
      Hashtbl.remove t.in_flight r;
      match Hashtbl.find_opt t.parked r with
      | None -> ()
      | Some q ->
        Hashtbl.remove t.parked r;
        Queue.iter
          (fun e ->
            t.parked_count <- t.parked_count - 1;
            (* original seq: overtakes anything that arrived later *)
            Heap.push t.heap e)
          q)
    e.resources

let pending t = Heap.length t.heap + t.parked_count
let queued t = Heap.length t.heap
let parked t = t.parked_count
