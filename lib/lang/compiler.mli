(** The rule compiler (§4.2/§4.4.1): deployment is a multi-pass
    compilation.

    Per-rule rewrites (unchanged since the first compiler):

    - {e fixed-property inlining}: [qs:property("p")] for a fixed property
      becomes its value expression for the rule's queue ("similar to
      conventional view merging, fixed properties are inlined");
    - {e default-parameter supply}: [qs:queue()] becomes
      [qs:queue("<this queue>")];
    - {e constant folding} of literal subexpressions;
    - {e condition pre-filter extraction} ({!Prefilter}).

    Plan passes, per target:

    + {e unsatisfiability pruning} — rules whose pre-filter requirements
      fall outside the target queue's closed schema vocabulary are
      statically dead and dropped (with the reason kept for explain);
    + {e guard splitting} — conditional rule bodies (§3.3) decompose into
      guard/then/else so the fused plan preserves per-rule error
      attribution (§3.6);
    + {e common-subexpression hoisting} — pure, stable expressions shared
      by several rules become plan-level bindings, evaluated once per
      message;
    + {e guard sharing} — structurally identical stable guards share one
      evaluation;
    + {e conflict footprints} — the queues/slices each rule can touch
      (⊤ for dynamic queue names), lowered to dispatcher resource strings
      and cached on the plan as the dispatch template.

    The guarded {!Demaq_xquery.Plan.t} is the only thing the executor
    evaluates; {!compile} with [~reference:true] builds the per-rule
    reference shape of it. *)

type compiled_rule = {
  cr_name : string;
  cr_error_queue : string option;  (** rule-level error queue (§3.6) *)
  cr_body : Demaq_xquery.Ast.expr;  (** rewritten *)
  cr_requirements : string list;
      (** element names the triggering message must contain for the rule
          to possibly fire; empty = always evaluate *)
}

type footprint = {
  fp_top : bool;  (** ⊤: a dynamically computed queue name *)
  fp_queues : string list;  (** statically known queues read or written *)
  fp_slices : (string * string) list;
      (** slice resets with literal keys, as (slicing, key) *)
  fp_dynamic_reset : string list;
      (** slicings reset with a computed key *)
  fp_own_queue : bool;  (** reads the triggering message's own queue *)
}
(** The statically derived set of shared resources a rule's execution can
    touch — the conflict lattice element for footprint-driven dispatch. *)

type conflict =
  | Conflict_top  (** conflicts with every queue *)
  | Conflict_resources of { res : string list; own_queue : bool }
      (** dispatcher resource strings; [own_queue] adds the triggering
          message's own queue resource at schedule time *)

type plan = {
  target : string;  (** queue or slicing name *)
  on_slicing : bool;
  rules : compiled_rule list;  (** surviving rules, declaration order *)
  pruned : (string * string) list;
      (** statically dead rules: (name, reason) *)
  exec : Demaq_xquery.Plan.t;  (** the guarded execution plan *)
  footprints : footprint list;  (** aligned with [exec]'s guarded rules *)
  conflicts : (string list * conflict) array;
      (** per guarded rule: (pre-filter requirements, conflict resources)
          — the cached dispatch template *)
  conflict_union : conflict;  (** union over all rules *)
  queue_resource : string;  (** ["q:" ^ target], interned once *)
}

type t

val compile : ?reference:bool -> Qdl.program -> t
(** [reference:true] (default [false]) builds the reference plan shape:
    each rule, after the per-rule rewrites, becomes one unguarded plan
    entry with no pre-filter requirements — nothing pruned, split,
    hoisted or shared, so every rule is evaluated in declaration order.
    Footprints and conflicts are still computed per rule. It is the
    baseline of benchmarks B16/A4 and the oracle of the plan tests. *)

val plan_for : t -> string -> plan option
val plans : t -> plan list
(** All plans, sorted by target name. *)

val source_program : t -> Qdl.program
(** The program the plans were compiled from (used by runtime
    evolution). *)

val reference : t -> bool
(** Whether {!compile} built the reference shape; runtime evolution
    recompiles in the same shape. *)

val all_queue_resources : t -> string list
(** One ["q:" ^ name] resource per declared queue: what a ⊤ footprint
    expands to under footprint dispatch. *)

val explain : t -> string
(** Human-readable plan dump: hoisted bindings, per-rule guards and
    branches, error queues, pre-filter requirements, conflict footprints,
    and pruned rules with their unsatisfiability reason. *)

val footprint_to_string : footprint -> string
val conflict_to_string : conflict -> string

val fuse_descendant_steps : Demaq_xquery.Ast.expr -> Demaq_xquery.Ast.expr
(** The per-rule rewrite of a predicate-free [a/descendant-or-self::node()/child::t]
    into [a/descendant::t]; both select the same sequence. It is
    {!Demaq_xquery.Ast.fuse_descendant_steps}, which {!Demaq_xquery.Eval.run}
    applies too. Exposed for tests. *)
