(** Seeded chaos schedules for the deterministic simulation harness.

    A schedule is a finite list of events drawn from the engine's existing
    injection points — message arrival, one dispatcher step with a seeded
    pick, virtual-time advance, a durability barrier with a gateway pump,
    kill-and-redeploy with a (capped) torn WAL tail, endpoint partitions,
    and armed evaluator/apply faults. One integer seed generates the whole
    schedule; the event list alone then fully determines the episode, so a
    failing schedule can be saved, shrunk, and replayed bit-for-bit. *)

type event =
  | Inject of string  (** deliver the next workload message into a queue *)
  | Step of int
      (** one dispatcher step; the integer seeds the pick among the
          messages that could legally run next *)
  | Advance of int  (** advance the virtual clock, firing due timers *)
  | Barrier  (** force a durability barrier, then pump the gateways *)
  | Crash of int
      (** kill-and-redeploy; the integer is the requested WAL tear in
          bytes, capped at the unsynced tail unless the run is blind *)
  | Partition of string  (** disconnect a network endpoint *)
  | Reconnect of string
  | Fail_eval  (** arm an injected fault on the next rule evaluation *)
  | Fail_apply  (** arm a fault on the next pending-update application *)
  | Burst of int
      (** a load spike: that many arrivals pushed through the admission
          gate back-to-back; messages the gate sheds are counted but never
          injected *)
  | Compact
      (** log compaction: harden the group-commit batch and fold the WAL
          into a fresh snapshot *)
  | Torn_compact of int
      (** a compaction that dies at its commit point — before the snapshot
          slot write when the integer is even, just after the slot's fsync
          when odd — then a restart from whatever is on disk *)

type t = { seed : int; events : event list }

val generate : seed:int -> ?events:int -> unit -> t
(** Derive a schedule of [events] events (default 40) from the seed alone.
    Same seed, same schedule — always. *)

val event_to_string : event -> string
val event_of_string : string -> (event, string) result

val to_string : t -> string
(** The replayable artifact: a [seed N] header line followed by one event
    per line. [#] starts a comment; blank lines are ignored. *)

val of_string : string -> (t, string) result
(** Parse {!to_string}'s format; errors name the offending line. *)
