(** Compact binary XML encoding — the stored payload representation.

    A [Bxml] payload is a self-contained byte string:

    {v
    magic   4 bytes   0x00 'B' 'X' version(0x01)
    header  varint name_count, then per name:
              flag byte   bit0 = used as an element name
                          bit1 = has a namespace URI
              varint len, local bytes
              [varint len, uri bytes]        (only when bit1 is set)
    body    varint byte length, then a pre-order token stream:
              0x01 element: varint name_idx, varint attr_count,
                            attr_count x (varint name_idx,
                                          varint len, value bytes),
                            u32-LE content length, then the children's
                            tokens (exactly that many bytes)
              0x02 text:    varint len, bytes
              0x03 comment: varint len, bytes
              0x04 pi:      varint len, target bytes,
                            varint len, data bytes
    v}

    The design gives two operations that never build a tree: {!synopsis}
    reads only the header (the element-name set is computed once, at
    encode time), and {!check} validates the whole payload in one linear
    pass, the fixed-width content lengths letting it check that subtrees
    nest exactly.

    The first magic byte is [0x00], which can never begin a textual XML
    document, so {!is_binary} distinguishes the two stored formats and
    {!decode_any} transparently accepts legacy text payloads.

    A tree has one byte form, written by {!encode}: names are numbered in
    order of first use in pre-order, an element's attributes first, and
    each token is written as the walk meets it. A rule's [do enqueue]
    constructor whose holes all yield text renders its precompiled
    {!Program}, which gives the same bytes with no tree; any other
    payload is a tree first. {!encode} reuses a per-domain scratch arena
    (token stream, name table), so in steady state a payload costs the
    result string (sized exactly, one allocation). *)

exception Decode_error of string

val magic : string
(** The 4-byte format prefix, version byte included. *)

val is_binary : string -> bool
(** [is_binary s] is true iff [s] starts with the binary magic (any
    version). Textual XML payloads always answer [false]. *)

val encode : Tree.tree -> string
(** The tree's payload. *)

(** {1 Byte programs}

    A payload whose structure is fixed before its text is known (a
    [do enqueue] constructor), compiled once: the magic and name table,
    and per element the static tokens, with indexed gaps where a value
    goes. {!Program.render} sizes the payload exactly from the gap values
    and writes it with one allocation, blits and content-length patches.
    The bytes are those {!encode} gives for the element with the values
    in place, when the builder's calls follow that element in pre-order
    and the name array numbers its names in order of first use. *)
module Program : sig
  type t
  type builder

  val builder : unit -> builder

  val start_element : builder -> int -> attrs:int -> unit
  (** An element named by its index in the name array given to
      {!build}, whose next [attrs] calls are its attributes; its content
      follows them. *)

  val attribute : builder -> int -> string -> unit
  (** A static attribute. *)

  val attribute_gap : builder -> int -> int -> unit
  (** [attribute_gap b id g]: an attribute whose value is gap [g]. *)

  val text : builder -> string -> unit
  (** A static text token. *)

  val text_gap : builder -> int -> unit
  (** A text token whose content is gap [g], or no token when that gap
      holds {!no_text}. *)

  val end_element : builder -> unit

  val build : builder -> Name.t array -> t
  (** The program for the element written, its names numbered as in the
      array, which must hold every index used. Element flags come from the
      names {!start_element} used. *)

  val gaps : t -> int
  (** One more than the largest gap index. *)

  val no_text : string
  (** The gap value that writes no text token: compared physically, so
      no other string, even one of the same bytes, is taken for it. *)

  val render : t -> string array -> string
  (** The payload with gap [g] holding [values.(g)].
      @raise Invalid_argument when [values] has fewer than {!gaps}
      entries. *)
end

val decode : string -> Tree.tree
(** Decode a binary payload. Names are resolved through {!Name.intern};
    text contents borrow nothing (OCaml strings are immutable, so
    substrings are copies, but no intermediate tokens are allocated).

    @raise Decode_error on a payload that is not well-formed binary XML. *)

val decode_any : string -> Tree.tree
(** [decode_any s] decodes [s] as binary XML when {!is_binary}, and
    otherwise parses it as textual XML — the compatibility seam that
    lets stores written before the binary format replay unchanged.

    @raise Decode_error on corrupt binary input.
    @raise Parser.Parse_error on malformed textual input. *)

val synopsis : string -> string list
(** [synopsis s] returns the distinct local names used as element names
    in the payload, read from the header alone — O(header), no token
    scan, no tree.

    @raise Decode_error if [s] is not a binary payload or the header is
    corrupt. *)

val check : string -> (unit, string) result
(** Full structural validation in one streaming pass: magic/version,
    name-index bounds, token framing, and subtree lengths that nest
    exactly. Never builds a tree and never raises. *)

val validate : string -> bool
(** [validate s = Result.is_ok (check s)]. *)
