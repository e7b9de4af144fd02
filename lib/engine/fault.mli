(** Deterministic fault injection for crash-safety testing.

    Gray's "Queues Are Databases" argument is that a queue system earns its
    keep by surviving failures transactionally; this module provides the
    seeded, reproducible failures that the crash-recovery suite drives
    through the engine: evaluator exceptions on chosen (or randomly chosen)
    rule evaluations, exceptions while pending updates are applied, torn
    WAL tails, abrupt store restarts, and endpoint partitions.

    A {!t} handed to {!Server.set_fault} is consulted at the engine's
    injection points; the engine must abort the surrounding transaction,
    undo its changes, route an error message (§3.6) and keep running. *)

module Store := Demaq_store.Message_store

exception Injected of string
(** Deliberately NOT [Context.Eval_error]: injected faults exercise the
    engine's handling of {e arbitrary} exceptions, not just the expected
    evaluator errors. *)

type t

val create : ?seed:int -> unit -> t
(** [seed] (default 0) drives the random failure-rate lottery. *)

(** {1 Arming injection points} *)

val fail_on_eval : t -> int -> unit
(** Raise {!Injected} on the [n]th rule evaluation (1-based, counted over
    the lifetime of this [t]). May be called repeatedly to arm several
    ordinals. *)

val fail_on_apply : t -> int -> unit
(** Raise {!Injected} on the [n]th pending-update application — after some
    updates of the same transaction may already have been applied, so the
    abort path's undo work is exercised. *)

val fail_next_eval : t -> unit
(** Arm the next rule evaluation from wherever the counter stands now —
    the relative form simulation schedules use ("the next processed
    message fails") without tracking absolute ordinals. *)

val fail_next_apply : t -> unit

val set_eval_failure_rate : t -> float -> unit
(** Additionally fail each rule evaluation with the given probability
    (seeded, deterministic). *)

val disarm : t -> unit
(** Clear all armed ordinals and the failure rate. Counters keep running. *)

(** {1 Engine-side hooks} *)

val before_eval : t -> unit
val before_apply : t -> unit

(** {1 Counters} *)

val injected : t -> int
(** Faults actually raised so far. *)

val evals : t -> int
val applies : t -> int

(** {1 Crash simulation} *)

val tear_wal : dir:string -> bytes:int -> unit
(** Truncate the last [bytes] bytes of [dir]'s WAL, simulating a crash
    mid-append (a torn final record). Recovery must ignore the damaged
    record and keep the intact prefix. No-op on a missing log. *)

val crash_restart : ?tear_bytes:int -> Store.config -> Store.t -> Store.t
(** Simulate kill-and-redeploy: close the store without checkpointing,
    optionally tear the WAL tail, and reopen from disk. The caller then
    re-deploys a server on the returned store. *)

(** {1 Network partitions} *)

val partition : Demaq_net.Network.t -> string -> unit
val reconnect : Demaq_net.Network.t -> string -> unit
