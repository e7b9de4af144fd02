(** The guarded-plan IR: what the rule compiler lowers a target's rule
    set into, and the only thing the executor evaluates.

    A plan fuses every rule of one queue or slicing while preserving each
    rule's guard, error queue and pre-filter requirements, so error
    attribution (§3.6) and condition pre-filtering survive the merge.
    Plan-level {!t.p_bindings} hold common subexpressions hoisted across
    rule bodies; rules with structurally identical stable guards share a
    guard id and therefore a single evaluation per plan instance.

    {!eval} is observationally equivalent to per-rule interpretation:
    rules run in declaration order and report through the callbacks at
    their own turn, memoized bindings/guards are restricted to pure,
    stable expressions by the compiler, and if a shared evaluation fails
    each dependent rule re-evaluates its original body inline so the
    per-rule error (content and position) is reproduced exactly. *)

type guarded = {
  g_name : string;
  g_error_queue : string option;
  g_guard : Ast.expr option;
      (** split-out condition; [None] = unconditional body *)
  g_guard_id : int;  (** shared by structurally identical stable guards *)
  g_then : Ast.expr;
  g_else : Ast.expr;
  g_bindings : int list;
      (** plan-binding indices the rule needs; ascending, transitively
          closed *)
  g_fallback : Ast.expr;
      (** original (un-hoisted) body, evaluated inline when a shared
          binding or guard fails *)
  g_requirements : string list;
      (** condition pre-filter requirements; empty = always evaluate *)
}

type t = private {
  p_bindings : Ast.expr array;
      (** hoisted subexpressions in dependency order; binding [k] is read
          as [Ast.Slot k] *)
  p_guarded : guarded list;  (** declaration order *)
  p_n_guards : int;
  p_filtered : bool;
      (** some rule has pre-filter requirements: the executor needs the
          message's element names *)
}

type outcome =
  | Updates of Update.t list
  | Failed of string  (** dynamic error to route per §3.6 *)

val rules : t -> guarded list
val bindings : t -> Ast.expr list

val make : bindings:Ast.expr list -> n_guards:int -> guarded list -> t
(** A plan from the compiler's passes. Deploy's last rewrite happens
    here: the rule bodies' [do enqueue] constructors are lowered to bXML
    templates, each with its byte program ({!Ast.lower_templates}), and
    the bindings array and {!t.p_filtered} are computed once, for every
    message the plan runs on. *)

val of_rules : (string * string option * Ast.expr) list -> t
(** Trivial plan from [(name, error_queue, body)] rules: no hoisting, no
    guard splitting, no pre-filter requirements — per-rule interpretation
    verbatim (the compiler's reference shape). *)

val eval :
  admitted:(int -> guarded -> bool) ->
  before:(guarded -> unit) ->
  emit:(guarded -> outcome -> unit) ->
  Context.env ->
  t ->
  unit
(** Evaluate the plan for one message. [admitted] is the pre-filter
    verdict, given the rule's position in {!t.p_guarded} (skipped rules
    are not evaluated and not reported); [before]
    fires at each admitted rule's turn (metrics, blame tracking); [emit]
    delivers that rule's outcome inline, so the caller can route errors
    between rules exactly as per-rule interpretation would. The
    bindings are evaluated into a slot array carried in the rules'
    {!Context.env} ({!Context.env.slots}), each the first time a rule
    that needs it runs. *)
