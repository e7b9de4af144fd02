(** A lightweight structural schema language for queue message validation.

    The paper attaches optional XML Schema definitions to queues (§2.1.1)
    and classifies schema-incompatible enqueues as message-related errors
    (§3.6). Full XML Schema is out of scope; this module implements a
    DTD-like structural subset that covers the message shapes used in the
    paper's scenarios.

    Textual syntax, one declaration per [element] keyword:

    {v
      element offerRequest { requestID, customerID, items }
      element items { item* }
      element item { text }
      element note { mixed }
      element flag { empty }
    v}

    Content models are comma-separated particles; each particle is a child
    element name with an optional occurrence indicator ([?] optional,
    [*] zero-or-more, [+] one-or-more), or one of the keywords [text]
    (text-only content), [mixed] (anything), [empty], [any]. Elements that
    appear in a document but have no declaration are treated as open
    ([any]). *)

type occurrence = One | Optional | Many | Many1

type particle = { pname : string; occ : occurrence }

type content =
  | Text_only
  | Empty
  | Any
  | Mixed
  | Sequence of particle list

type t

val empty : t
(** The schema with no declarations; every document validates. *)

val parse : string -> (t, string) result
(** Parse the textual syntax above. *)

val declared : t -> string -> content option

val validate : t -> Tree.tree -> (unit, string) result
(** [validate s tree] checks [tree] and all descendants against the
    declarations in [s]. The error message names the offending element and
    what was expected. *)

val root_allowed : t -> string list -> Tree.tree -> (unit, string) result
(** Additionally restrict the root element's local name to the given list
    (empty list = no restriction). *)

val declared_names : t -> string list
(** All element names with a declaration, sorted. *)

val example : ?vary:int -> ?max_depth:int -> t -> string -> Tree.tree option
(** [example t name] synthesizes an instance document for the declared
    element [name] by walking its content model — sequences get one
    subtree per particle (repetition counts perturbed by [vary]),
    text-only elements get a plausible leaf value derived from the element
    name and [vary], undeclared children become text leaves. Generation is
    deterministic in [(t, name, vary)] and the result validates against
    [t] for non-recursive schemas (recursion is cut at [max_depth],
    default 8). [None] when [name] has no declaration. *)
