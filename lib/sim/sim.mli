(** The deterministic simulation harness.

    One {!Schedule.t} drives a complete engine episode in virtual time:
    a fixed two-queue workload (a high-priority queue [qa] whose rule
    produces into [outq], a default-priority queue [qb] whose rule sends
    through a reliable outgoing gateway [gw] to the endpoint [partner],
    both with error queue [errs]) runs on a durable group-commit store
    while the schedule injects messages, picks dispatcher steps, tears WAL
    tails across crash-restarts, partitions the endpoint, arms evaluator
    faults, pushes load bursts through the admission gate, and compacts
    the log — including compactions torn at their commit point. Same
    schedule, same trace — bit for bit.

    After every event, and again after the final drain, the harness checks
    the §3.1/§3.6 invariants:

    - {b exactly-once}: no workload id yields two outputs; every processed
      id yields its output or an error message;
    - {b order}: per-queue FIFO by rid within an incarnation, and no step
      processes below the highest runnable priority;
    - {b barrier-before-transmission}: the endpoint never observes
      unsynced commits at delivery time;
    - {b durability}: no message whose commit was synced disappears across
      a crash-restart — including a restart after a compaction torn on
      either side of its snapshot slot's commit point;
    - {b abort-error}: the error queue grew by exactly one message per
      transaction abort and per dead-lettered transmission;
    - {b shed-isolation}: an arrival the admission gate refused leaves no
      trace in the store, in this incarnation or any later one. *)

type violation = { invariant : string; detail : string }

type outcome = {
  schedule : Schedule.t;
  trace : string list;  (** one line per event, deterministic *)
  violations : violation list;
}

val run : ?blind_tear:bool -> ?footprint:bool -> Schedule.t -> outcome
(** Execute the schedule against a fresh store in a temp directory
    (cleaned up afterwards). [blind_tear] applies [Crash] tears without
    capping them at the unsynced WAL tail — the tear may then destroy
    synced commits, which is a deliberately detectable durability
    violation used to validate the checker and the shrinker.
    [footprint] runs the episode with conflict-footprint-driven dispatch
    ([footprint_dispatch]); every invariant must hold unchanged — the
    workload's producing rules all touch their output resource, so even
    the relaxed ordering discipline preserves outq FIFO. *)

val shrink : ?blind_tear:bool -> ?footprint:bool -> Schedule.t -> Schedule.t
(** Greedy delta-debugging: repeatedly drop event chunks (halving the
    chunk size down to 1) while the schedule still produces at least one
    violation. Returns a 1-minimal failing schedule, or the input
    unchanged if it does not fail. *)

val report : outcome -> string
(** Human-readable: the schedule, the trace, and the verdicts. *)

type sweep_result =
  | Clean of int  (** iterations run, all invariants held *)
  | Failed of {
      seed : int;  (** the failing iteration's schedule seed *)
      outcome : outcome;
      shrunk : Schedule.t;
      shrunk_outcome : outcome;
    }

val sweep :
  ?blind_tear:bool ->
  ?footprint:bool ->
  ?events:int ->
  ?progress:(int -> unit) ->
  seed:int ->
  iters:int ->
  unit ->
  sweep_result
(** Generate and run [iters] schedules from seeds [seed], [seed+1], …;
    stop at the first violation and hand back both the original failing
    outcome and its shrunk counterexample. [progress] is called with each
    iteration index before it runs. *)
