(** Per-message lifecycle spans in a bounded ring (§2.3.3).

    The executor records one {!span} per transaction: per-phase wall-clock
    timings for the §3.1 cycle, the rules that fired (or were
    pre-filtered), actions applied, and the outcome. Capacity 0 disables
    recording; otherwise the ring keeps exactly the last [capacity]
    spans. *)

type activation = {
  a_rule : string;
  a_updates : int;  (** pending updates the evaluation produced *)
  a_skipped : bool;  (** suppressed by the condition pre-filter *)
}

type outcome = Committed | Aborted of string

type span = {
  sp_rid : int;
  sp_queue : string;
  sp_flow : string;  (** causal flow id; [""] when the message is untraced *)
  sp_parent : int;  (** rid of the causing message; [-1] = cascade root *)
  sp_cause : string;
      (** rule (or origin kind: "ingress", "timer", ...) that enqueued the
          message *)
  sp_tick : int;  (** logical clock at commit/abort *)
  sp_worker : int;  (** metrics shard of the processing domain *)
  sp_start_ns : int;  (** wall clock at setup start; 0 when timing is off *)
  sp_wait_ns : int;
      (** enqueue/schedule → dispatch queueing delay: how long the message
          sat runnable before a worker picked it up (0 when timing is off) *)
  sp_lock_ns : int;  (** setup: fetch + plan lookup + prefilter *)
  sp_decode_ns : int;
      (** lazy payload decode within setup (sub-interval of [sp_lock_ns];
          0 when admission resolved from the synopsis without a tree) *)
  sp_eval_ns : int;  (** unlocked snapshot rule evaluation *)
  sp_apply_ns : int;  (** locked apply + commit *)
  sp_barrier_ns : int;  (** abort-path hardening *)
  sp_activations : activation list;  (** in evaluation order *)
  sp_actions : int;
  sp_batch : int;
      (** group-commit batch target in force when the message was
          dispatched; moves under the adaptive controller *)
  sp_outcome : outcome;
}

type t

val create : capacity:int -> t
val enabled : t -> bool
val capacity : t -> int

val total : t -> int
(** Spans ever recorded (recorded - capacity = dropped, if positive). *)

val record : t -> span -> unit
(** O(1); no-op when capacity is 0. Safe from any domain. *)

val spans : t -> span list
(** Retained spans, newest first. *)

val json_escape : string -> string
(** JSON string-body escaping (quotes, backslash, control characters) —
    shared by the span JSONL and the flow-tree renderers. *)

val span_json : span -> string
(** One span as a single-line JSON object. *)

val dump_jsonl : t -> string
(** All retained spans as JSONL, oldest first. *)

val pp_span : Format.formatter -> span -> unit
