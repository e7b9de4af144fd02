(** The message scheduler (§4.4.2) and queue-partitioned dispatcher.

    Owns the priority heap of unprocessed messages, ordered by queue
    priority descending, then arrival sequence ascending: higher-priority
    messages overtake older lower-priority ones, and FIFO holds within a
    priority level (O(log n) per operation). Hands out ready messages to
    the worker pool such that two messages with overlapping conflict
    resources (queue name, slice memberships) never run concurrently,
    while preserving per-queue arrival order and queue priority. Entries
    blocked on an in-flight resource are parked and re-enter the heap
    with their original sequence number when the resource frees.

    A scheduled message is one {!entry}: its rid, conflict resources and
    schedule stamp travel with it from {!schedule} through {!next} to
    {!complete}, so the dispatcher keeps no table keyed by rid. This
    partition is the engine's only isolation mechanism: it is how
    slice-granularity locking (§4.3) is enforced.

    NOT internally synchronized: callers (the worker pool's monitor)
    must serialize all access. *)

type t

val create : unit -> t

type entry = {
  rid : int;
  priority : int;
  seq : int;  (** arrival sequence number, assigned by {!schedule} *)
  resources : string list;
      (** conflict resources the dispatcher partitions on *)
  stamp : int;
      (** clock (ns) when the message was scheduled, for queue-wait
          attribution; [-1] when nothing reads the timings *)
}
(** A scheduled message. It carries everything the dispatcher and the
    executor need about the message, so neither keeps a table keyed by
    rid. *)

val schedule :
  t -> priority:int -> resources:string list -> stamp:int -> int -> unit
(** Add a message rid with its conflict resources and schedule stamp
    (see {!entry}), behind every entry already scheduled at its
    priority. The dispatcher does not look for duplicates: each rid is
    scheduled once, and a second copy of a processed message is skipped
    by the executor. *)

type slot =
  | Ready of entry  (** entry to run; its resources are now claimed *)
  | Busy  (** work exists but all of it conflicts with running messages *)
  | Empty  (** nothing queued or parked *)

val next : ?pick:(int -> int) -> t -> slot
(** Hand out the next message. Without [pick], strict heap order
    (priority desc, arrival seq asc). With [pick] — the simulation's
    seeded chooser — the dispatcher collects every entry that could
    legally run next (runnable entries of the top priority level, earliest
    per conflict resource) and runs candidate [pick n mod n]: priority and
    per-queue FIFO still hold by construction, but cross-queue
    interleaving is explored reproducibly. [pick] is invoked exactly once
    per [Ready] result. *)

val complete : t -> entry -> unit
(** The handed-out entry finished (or was skipped): release its
    resources and revive entries parked on them. Only an entry {!next}
    returned may be completed, once. *)

val pending : t -> int
(** Queued + parked (excludes running). *)

val queued : t -> int
(** Entries in the priority heap, runnable or not. *)

val parked : t -> int
(** Entries blocked on an in-flight conflict resource. *)
