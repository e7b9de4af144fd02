(** A namespace-aware, non-validating XML parser.

    Supports elements, attributes, character data, CDATA sections, comments,
    processing instructions, numeric and predefined entity references, an
    (ignored) document type declaration and the XML declaration. Namespace
    prefixes, including [xmlns] / [xmlns:p] declarations and the [xml]
    prefix, are resolved to URIs during parsing; prefixes themselves are not
    retained. *)

exception Parse_error of { line : int; col : int; msg : string }

val parse : ?preserve_space:bool -> string -> Tree.tree
(** [parse s] parses a complete XML document (or a bare element) and returns
    its root element. Whitespace-only text nodes between elements are
    dropped unless [preserve_space] is [true] (default [false]).

    @raise Parse_error on malformed input. *)

val parse_many : ?preserve_space:bool -> string -> Tree.tree list
(** [parse_many s] parses a sequence of concatenated XML documents
    (optionally separated by whitespace, comments or PIs) sharing one
    parser state — the batch-ingress form of {!parse}. At least one
    document is required.

    @raise Parse_error on malformed input. *)

val char_ref : string -> string
(** [char_ref body] is the UTF-8 encoding of the character that the
    numeric reference [&#body;] names: [body] is decimal digits, or [x]
    and hex digits.

    @raise Parse_error (at line 0, column 0: the caller knows where the
    reference stood) on any other body, or when the code point is not
    one XML's [Char] production allows. *)

val parse_result : ?preserve_space:bool -> string -> (Tree.tree, string) result
(** Exception-free variant of {!parse}; the error string includes the
    position. *)
