(** A strict two-phase lock manager with hierarchical resource names.

    A standalone model of §4.3's two lock granularities, measured by
    bench B3: whole queues, or individual slices ("by locking just the
    affected slices, full serializability of the individual
    message-processing transactions can be guaranteed without locking
    whole queues"). The engine does not use it; it isolates transactions
    with the dispatcher's partition on queue and slice resources.

    The interface is non-blocking: {!acquire} either grants the lock or
    reports the conflicting holders, and the caller (a benchmark driving
    simulated concurrency) decides whether to wait,
    retry, or abort. Wait-for edges registered via {!wait_on} feed the
    deadlock detector.

    The manager is domain-safe: every operation is atomic under an
    internal mutex, so transactions running on different worker domains
    may acquire and release concurrently. *)

type mode = Shared | Exclusive

type resource =
  | Queue_lock of string
  | Slice_lock of string * string  (** slicing name, slice key *)
  | Message_lock of int

val resource_to_string : resource -> string

type t

val create : unit -> t

type outcome = Granted | Conflict of int list
(** [Conflict txns] lists the transactions holding an incompatible lock. *)

val acquire : t -> txn:int -> resource -> mode -> outcome
(** Re-entrant; a shared lock held solely by [txn] upgrades to exclusive. *)

val release_all : t -> txn:int -> unit
(** Strict 2PL: all locks are released together at commit/abort. *)

val held : t -> txn:int -> (resource * mode) list

val wait_on : t -> txn:int -> resource -> unit
(** Record that [txn] is waiting for [resource] (for deadlock detection). *)

val stop_waiting : t -> txn:int -> unit

val would_deadlock : t -> txn:int -> resource -> bool
(** Would adding a wait-for edge from [txn] to the holders of [resource]
    close a cycle in the wait-for graph? *)

val active_locks : t -> int
