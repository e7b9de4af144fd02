(** The XQuery data model subset used by Demaq rules.

    A value is a flat sequence of items; an item is either an XML node (with
    identity and document order, from {!Demaq_xml.Tree}) or an atomic value.
    Timestamps are plain integers (virtual-clock ticks of the engine), which
    keeps the model small while covering every expression in the paper. *)

type atomic =
  | Boolean of bool
  | Integer of int
  | Decimal of float
  | String of string
  | Untyped of string
      (** Untyped atomic data produced by atomizing nodes; coerced per the
          XQuery general-comparison rules. *)

type item = Node of Demaq_xml.Tree.node | Atom of atomic

type t = item list

(** {1 Atomic types, as written in QDL ([as xs:boolean] etc.)} *)

type atomic_type = T_string | T_integer | T_decimal | T_boolean

val atomic_type_of_string : string -> (atomic_type, string) result
(** Accepts ["xs:string"], ["xs:integer"], ["xs:decimal"], ["xs:double"],
    ["xs:boolean"] (and the same without the [xs:] prefix). *)

val atomic_type_name : atomic_type -> string

val cast : atomic_type -> atomic -> (atomic, string) result

(** {1 Conversions} *)

val string_of_atomic : atomic -> string

val number_of_atomic : atomic -> float
(** XPath [number()]: booleans map to 0/1, non-numeric strings to [nan]. *)

val atomize_item : item -> atomic
(** Nodes atomize to their untyped string value. *)

val atomize : t -> atomic list
val string_value : t -> string
(** String value of the first item; [""] for the empty sequence. *)

(** {1 XQuery semantics helpers} *)

exception Type_error of string

val ebv : t -> bool
(** Effective boolean value. @raise Type_error on sequences that have no
    EBV (e.g. a multi-item atomic sequence). *)

val compare_atomic : atomic -> atomic -> int
(** Total order used by value comparisons, [distinct-values], [order by]:
    numeric if both sides are numeric (or untyped-castable), else string. *)

val general_compare :
  [ `Eq | `Ne | `Lt | `Le | `Gt | `Ge ] -> t -> t -> bool
(** Existentially quantified general comparison ([=], [!=], ...), with
    untyped coercion to the other operand's type. *)

val value_compare :
  [ `Eq | `Ne | `Lt | `Le | `Gt | `Ge ] -> t -> t -> t
(** Value comparison ([eq], [lt], ...): empty if either side is empty.
    @raise Type_error if either side has more than one item. *)

val arith :
  [ `Add | `Sub | `Mul | `Div | `Idiv | `Mod ] -> t -> t -> t
(** Arithmetic with numeric promotion; empty if either operand is empty.
    @raise Type_error on non-numeric operands or division by zero in
    [idiv]/[mod]. *)

val doc_order_dedup : t -> t
(** Sort nodes into document order and remove duplicate nodes. If the value
    contains any atomic item it is returned unchanged (mixed path results
    are a type error handled by the caller). *)

val all_nodes : t -> bool

val equal : t -> t -> bool
(** Deep equality used by tests: node items compare by structural XML
    equality, atomics by type and value. *)

val pp : Format.formatter -> t -> unit
val to_display_string : t -> string
