(** Evaluator for the QML expression language.

    Evaluation is side-effect free with respect to the message store: the
    update primitives ([do enqueue], [do reset]) only append to the pending
    update list in the environment (snapshot semantics, §3.1 of the paper).
    The engine applies the pending list after all rules have run. *)

exception Eval_error of string
(** Re-export of {!Context.Eval_error} for convenience. *)

val eval : Context.env -> Ast.expr -> Value.t
(** @raise Context.Eval_error on dynamic errors (undefined variables,
    type errors, unknown functions, ...). *)

val eval_with_updates : Context.env -> Ast.expr -> Value.t * Update.t list
(** Evaluate with a fresh pending-update list and return the updates
    produced by this expression only. *)

val node_of_tree : Demaq_xml.Tree.tree -> Demaq_xml.Tree.node
(** Wrap a bare tree as the root element node of a fresh document, e.g. to
    use a constructed or parsed message as a context item. *)

val doc_node_of_tree : Demaq_xml.Tree.tree -> Demaq_xml.Tree.node
(** Wrap a bare tree as a fresh document and return the document node.
    This is what [qs:message()] and [qs:queue()] hand to rules (§3.4 of
    the paper: "the document node of the currently processed message"). *)

val run :
  ?host:Context.host ->
  ?vars:(string * Value.t) list ->
  ?context:Demaq_xml.Tree.tree ->
  string ->
  Value.t * Update.t list
(** One-shot convenience: parse and evaluate [expr] with the given context
    tree as context item. Predicate-free [a//t] steps run fused as
    [a/descendant::t] ({!Ast.fuse_descendant_steps}), as in a compiled
    rule. *)
