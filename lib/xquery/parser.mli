(** Parser for the QML expression language: an XQuery subset (paths with
    predicates, FLWOR, quantified and conditional expressions, direct
    element constructors, the operator grammar) extended with the Demaq
    update primitives [do enqueue ... into q with p value e] and
    [do reset [slicing s key e]].

    Lexical notes, following the XQuery 1.0 rules that matter in practice:
    names may contain hyphens ([order-id] is one name; write [a - b] with
    spaces for subtraction); keywords are contextual ([if] is only special
    when followed by ["("]); comments are [(: ... :)] and nest. *)

exception Syntax_error of { pos : int; msg : string }

val parse : string -> Ast.expr
(** Parse a complete expression. @raise Syntax_error on malformed input. *)

val parse_result : string -> (Ast.expr, string) result

(** {1 Incremental interface}

    Used by the QDL/QML front-end, which embeds expressions inside its own
    statement syntax. *)

type state

val state_of_string : string -> state
val state_pos : state -> int
val parse_expr_single : state -> Ast.expr
(** Parse one [ExprSingle] (no top-level comma) and stop. *)

val parse_expr : state -> Ast.expr
(** Parse a full (comma-separated) expression and stop. *)

val at_eof : state -> bool
val skip_ws : state -> unit

(** Token-level helpers for host languages (QDL) that embed expressions. *)

val peek_name : state -> string option
(** The next token if it is a name, without consuming it. *)

val read_name : state -> string
(** Consume a name token. @raise Syntax_error otherwise. *)

val accept_name : state -> string -> bool
(** Consume the given keyword if it is next; report whether it was. *)

val accept_punct : state -> string -> bool
(** Consume the given punctuation token (e.g. [","]) if it is next. *)

val read_int : state -> int
val read_braced_raw : state -> string
(** Consume a brace-delimited raw block ["{ ... }"] (nesting respected) and
    return its contents verbatim; used for inline schema definitions. *)

val error_position : string -> int -> string
(** [error_position src pos] renders a human-readable line/column. *)
