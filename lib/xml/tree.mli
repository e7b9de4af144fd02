(** Immutable XML trees and navigable node handles.

    The {!tree} type is the plain immutable value representation used to
    build and pattern-match XML content. The {!node} type wraps a tree with
    its position inside a {!document}, giving every node a stable identity
    and a total document order — both required by the XQuery data model. *)

type attribute = { attr_name : Name.t; attr_value : string }

type tree =
  | Element of element
  | Text of string
  | Comment of string
  | Pi of { target : string; data : string }

and element = { name : Name.t; attrs : attribute list; children : tree list }

(** {1 Construction helpers} *)

val elem : ?attrs:(string * string) list -> string -> tree list -> tree
(** [elem name children] builds an element in no namespace. Attribute names
    are given in James-Clark notation (see {!Name.of_string}). *)

val elem_ns : ?attrs:attribute list -> Name.t -> tree list -> tree
val text : string -> tree
val attr : string -> string -> attribute

(** {1 Tree accessors} *)

val element_name : tree -> Name.t option
val attribute_value : tree -> string -> string option
(** [attribute_value t name] looks up an attribute by local name on an
    element; [None] for non-elements or missing attributes. *)

val child_elements : tree -> tree list
val find_child : tree -> string -> tree option
(** First child element with the given local name. *)

val tree_string_value : tree -> string
(** Concatenation of all descendant text nodes (XPath string value). *)

val equal_tree : tree -> tree -> bool
(** Structural equality: name, attributes (order-insensitive), children
    (order-sensitive). Comments and PIs are compared too. *)

(** {1 Documents and nodes} *)

type document
(** A document wraps a forest of root trees (normally a single element) and
    carries a process-unique identifier used for node identity. *)

type node
(** A node handle: a position inside a document. *)

val doc : tree -> document
(** [doc t] wraps a tree as a fresh single-rooted document. *)

val doc_of_forest : tree list -> document
val doc_id : document -> int
val root_node : document -> node
(** The document node itself. *)

val document_element : document -> tree option

type focus =
  | Fdocument
  | Ftree of tree
  | Fattribute of attribute

val focus : node -> focus
val node_document : node -> document

val children : node -> node list
(** Child nodes (elements, text, comments, PIs), in document order.
    Attribute nodes are not children; see {!attributes}. *)

val children_where : (tree -> bool) -> node -> node list
(** [children n] restricted to the child trees satisfying the predicate;
    node records are built only for those. *)

val attributes : node -> node list
val parent : node -> node option
val descendants : node -> node list
(** Descendants in document order, not including the node itself. Attribute
    nodes are never returned by the descendant axis. *)

val descendants_where : (tree -> bool) -> node -> node list
(** [descendants n] restricted to the trees satisfying the predicate, in
    one linear walk that builds node records only for those. *)

val descendant_or_self : node -> node list

val node_name : node -> Name.t option
val string_value : node -> string
val is_element : node -> bool
val is_text : node -> bool

val same_node : node -> node -> bool
val doc_order : node -> node -> int
(** Total order: document id, then position; attributes of an element sort
    after the element and before its children. *)

val node_tree : node -> tree option
(** The subtree at the node, if it is an element/text/comment/PI node. For a
    document node, returns its single root element if there is one. *)

val pp_tree : Format.formatter -> tree -> unit
