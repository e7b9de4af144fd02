(** The worker pool: N OCaml 5 domains draining the dispatcher.

    Owns a {!Dispatch.t} behind a monitor; {!drain} runs up to [budget]
    transactions through the supplied callback, spawning domains per call and
    joining them before returning. With [workers = 1] (or [budget = 1])
    the drain runs inline on the calling thread and is deterministic:
    message order matches the seed single-threaded scheduler exactly.

    The [process] callback receives the dispatch entry (rid, conflict
    resources, schedule stamp), runs its transaction, and
    returns how many messages that transaction processed ([0] = skipped
    duplicate/collected rid, which does not count against the budget).
    An exception escaping
    [process] stops the drain and is re-raised from {!drain} after all
    workers have been joined. *)

type t

val create : registry:Demaq_obs.Metrics.registry -> workers:int -> unit -> t
(** [workers] is clamped to [1 .. 64]. Worker domain [i] binds shard
    [i+1] of [registry] at the start of each parallel drain. *)

val instrument : t -> Demaq_obs.Metrics.registry -> unit
(** Register the dispatcher depth/parked gauges and the per-worker
    processed/idle/drain counters (labelled [worker="i"]) on the
    registry. *)

val workers : t -> int

val set_picker : t -> (int -> int) option -> unit
(** Install (or clear) a seeded candidate chooser, passed to
    {!Dispatch.next} on inline drains — the simulation's cooperative
    single-domain mode, where "which worker won the race" becomes a
    reproducible pseudo-random choice. Ignored by parallel drains (real
    domains race for real). *)

val schedule :
  t -> priority:int -> resources:string list -> stamp:int -> int -> unit
(** Thread-safe; wakes blocked workers. Callable from inside [process]
    (messages enqueued by a transaction schedule their successors). *)

type drained = {
  transactions : int;  (** dispatched rids that processed something *)
  messages : int;  (** messages those transactions processed *)
}

val drain : t -> budget:int -> process:(Dispatch.entry -> int) -> drained
(** Run until [budget] transactions have completed or no runnable work
    remains. Not itself reentrant — one drain at a time. *)

val pending : t -> int

type worker_stats = {
  mutable w_processed : int;
      (** messages this worker's transactions processed, inert ones
          included *)
  mutable w_idle : int;  (** times it blocked waiting for compatible work *)
  mutable w_drains : int;  (** drain calls it participated in *)
}

val worker_stats : t -> worker_stats list
(** A snapshot, one entry per worker slot. *)
