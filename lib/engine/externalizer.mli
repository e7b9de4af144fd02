(** The externalizer: gateway pump, timer-wheel retries, echo firings —
    every path by which an effect escapes the process.

    Maintains PR 2's discipline across worker domains: a group-commit
    {!Executor.harden} barrier precedes every transmission, and a rid is
    marked sent only once the transport confirms it (or the message is
    dead-lettered). Runs on the coordinator thread between drains; shared
    state is still touched under the executor's [state_mu], released
    around the actual network send so endpoint handlers may re-enter the
    engine. *)

module Defs = Demaq_mq.Defs
module Message = Demaq_mq.Message

val transmit_retries : int
(** Retries granted to a failed reliable transmission beyond its first
    attempt before the message is dead-lettered to its error queue chain.
    Retries are re-armed through the timer wheel with exponential backoff:
    retry [n] waits [2^(n-1)] virtual-clock ticks. *)

val transmit :
  Executor.t -> ?attempt:int -> Message.t -> Defs.queue_def -> unit
(** One delivery attempt for a message of an outgoing gateway queue:
    interface check, send, reply injection, retry scheduling or
    dead-lettering per WS-ReliableMessaging declarations. *)

val pump_gateways : Executor.t -> int
(** Drain every outgoing gateway's outbox; returns the number of
    transmission attempts. *)

val fire_echo : Executor.t -> rid:int -> target:string -> unit
(** An echo-queue timeout fired: forward the stored message to its target
    queue and retire it (§2.1.3). *)

val advance_time : Executor.t -> int -> unit
(** Advance the virtual clock and run due timers (echo firings and
    transmission retries). *)
