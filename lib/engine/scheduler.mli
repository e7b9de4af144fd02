(** The message scheduler (§4.4.2): "maintains a list of all unprocessed
    messages and chooses the next message to be handled, considering both
    their temporal ordering and the priority of the containing queues."

    A binary heap ordered by (queue priority descending, arrival sequence
    ascending): higher-priority messages overtake older lower-priority
    ones; FIFO holds within a priority level. All operations are
    O(log n). *)

type t

type entry = {
  rid : int;
  priority : int;
  seq : int;
  resources : string list;
      (** conflict resources the dispatcher partitions on *)
  stamp : int;
      (** clock (ns) when the message was scheduled, for queue-wait
          attribution; [-1] when nothing reads the timings *)
}
(** A scheduled message with its arrival sequence number. Exposed so the
    dispatcher can park an entry (queue busy on another worker) and later
    re-push it with its original [seq], preserving per-queue FIFO; the
    entry carries everything the dispatcher and the executor need about
    the message, so neither keeps a table keyed by rid. *)

val create : unit -> t

val add : t -> priority:int -> int -> unit
(** Schedule a message rid at the given queue priority, with no
    resources and no stamp. *)

val entry :
  t -> priority:int -> resources:string list -> stamp:int -> int -> entry
(** Allocate the next arrival sequence number for a rid without pushing;
    pair with {!push}. *)

val push : t -> entry -> unit
(** (Re-)insert an entry, keeping whatever [seq] it carries. *)

val pop : t -> int option
(** The next rid per the scheduling order, removing it. *)

val pop_entry : t -> entry option
(** Like {!pop} but keeps the priority and sequence number attached. *)

val peek_entry : t -> entry option
(** The next entry, not removed. *)

val length : t -> int
