(* The message scheduler (§4.4.2): "maintains a list of all unprocessed
   messages and chooses the next message to be handled, considering both
   their temporal ordering and the priority of the containing queues."

   Higher queue priority wins; within a priority level, arrival order
   (a monotone sequence number) gives FIFO behaviour. *)

type entry = {
  rid : int;
  priority : int;
  seq : int;
  resources : string list;
  stamp : int;
}

type t = { heap : entry Heap.t; mutable next_seq : int }

let compare_entries a b =
  (* higher priority first, then earlier arrival *)
  let c = compare b.priority a.priority in
  if c <> 0 then c else compare a.seq b.seq

let create () = { heap = Heap.create compare_entries; next_seq = 0 }

let entry t ~priority ~resources ~stamp rid =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  { rid; priority; seq; resources; stamp }

let add t ~priority rid =
  Heap.push t.heap (entry t ~priority ~resources:[] ~stamp:(-1) rid)

let push t e = Heap.push t.heap e
let pop_entry t = Heap.pop t.heap
let pop t = Option.map (fun e -> e.rid) (Heap.pop t.heap)
let peek_entry t = Heap.peek t.heap
let length t = Heap.length t.heap
