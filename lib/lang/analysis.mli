(** Static semantic analysis of a Demaq program.

    Checks performed before deployment:
    - name resolution: rule targets, enqueue targets, property queues,
      slicing properties and error queues must exist; no duplicates;
    - context restrictions from the paper: [qs:slice()]/[qs:slicekey()]
      only in rules attached to slicings (§3.5.2); WS-ReliableMessaging
      requires persistence (§2.1.2);
    - free variables in rule bodies (guaranteed runtime errors);
    - [drop rule] statements are rejected outside evolution scripts;
    - a warning for rules that can never produce an update. *)

type severity = Error | Warning

type diagnostic = { severity : severity; where : string; message : string }

val pp_diagnostic : Format.formatter -> diagnostic -> unit

type result = {
  diagnostics : diagnostic list;
  ok : bool;  (** no errors (warnings allowed) *)
}

val errors_to_string : result -> string
(** The error diagnostics, one per line; warnings are left out. *)

val analyze : Qdl.program -> result

val free_variables : Demaq_xquery.Ast.expr -> string list
(** Variables referenced but not bound by any enclosing FLWOR or
    quantifier clause, sorted and deduplicated. *)
