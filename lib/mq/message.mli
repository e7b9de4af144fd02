(** The queue layer's view of a stored message: parsed payload, typed
    properties (§2.2), and slice memberships (§2.3).

    Messages are immutable after creation (the append-only model of
    §2.3.3); only the [processed] flag, owned by the engine, evolves. The
    body parses lazily from the stored payload, so scanning a queue by rid
    does not force XML parsing. *)

type membership = {
  m_slicing : string;
  m_key : string;  (** string-encoded slice key *)
  m_lifetime : int;
      (** the slice's lifetime counter at insertion; the membership is
          current while it equals the slice's counter (§2.3.2) *)
}

type provenance = {
  p_flow : string;
      (** flow id minted where the cascade entered the system (ingress,
          gateway, timer) or adopted from the client's [X-Demaq-Flow]
          header; [""] on messages predating flow tracing *)
  p_parent : int;  (** rid of the causing message; [-1] = cascade root *)
  p_cause : string;
      (** the rule whose [do enqueue] created this message, or an origin
          kind ("ingress", "timer", "reply", ...) for roots *)
}

val no_provenance : provenance
(** [{p_flow = ""; p_parent = -1; p_cause = ""}] — untraced / legacy. *)

type t = {
  rid : int;
  queue : string;
  raw : string Lazy.t;
      (** the stored payload bytes: binary {!Demaq_xml.Bxml} for messages
          written since the binary format landed, legacy XML text for
          older stores — {!body} decodes either *)
  body : Demaq_xml.Tree.tree Lazy.t;
  doc : Demaq_xml.Tree.node Lazy.t;
      (** the document node over [body], derived and immutable like it;
          every copy of the record shares it, so node identity is stable *)
  props : (string * Demaq_xquery.Value.atomic) list;
  memberships : membership list;
  prov : provenance;
      (** causal provenance (flow id / parent rid / causing rule),
          persisted in the extra blob so flows survive crash-restart *)
  enqueued_at : int;  (** virtual-clock tick *)
  processed : bool;
}

val body : t -> Demaq_xml.Tree.tree
(** Force the decoded payload tree. *)

val doc : t -> Demaq_xml.Tree.node
(** Force the document node (and with it the body). Not safe to force
    from two domains at once: callers serialize it. *)

val raw : t -> string
(** Force the stored payload bytes (spilled bodies fault in through the
    store's buffer pool). The streaming-admission path reads these
    without ever materializing a tree. *)

val body_forced : t -> bool
(** Whether {!body} has already been materialized — the observability
    seam that lets the engine count admission scans that avoided a
    decode, and the decodes it performed. A message admitted from a tree
    is born forced; one read from the store, or created by a rule's
    [do enqueue] (bXML bytes), is not. *)

val property : t -> string -> Demaq_xquery.Value.atomic option

val key_string : Demaq_xquery.Value.atomic -> string
(** The canonical string encoding of a slice key. *)

(** {1 Store blob codec}

    Properties and memberships ride in the store's opaque [extra] blob. *)

val encode_extra :
  ?provenance:provenance ->
  props:(string * Demaq_xquery.Value.atomic) list ->
  memberships:membership list ->
  unit ->
  string
(** [provenance] defaults to {!no_provenance}. The provenance triple is
    appended after the membership list, so blobs written by older builds
    decode to {!no_provenance} rather than failing. The blob is built in
    a per-domain scratch buffer, so encoding allocates only the result. *)

val decode_extra :
  string ->
  (string * Demaq_xquery.Value.atomic) list * membership list * provenance

val memberships_of_extra : string -> membership list
(** The memberships of an [extra] blob, stepping over its properties
    without decoding them. *)

val of_store : Demaq_store.Message_store.t -> Demaq_store.Message_store.message -> t
(** Decode a store record (spilled bodies are faulted in lazily through
    the store's buffer pool). *)
