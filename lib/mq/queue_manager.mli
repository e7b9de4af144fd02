(** The queue subsystem: interprets QDL declarations over the message store.

    Responsibilities (paper §2): enqueue with schema validation and
    property computation (explicit / system / inherited / computed values),
    slice membership tracking, materialized slice indexes (B-tree by slice
    key, §4.3), slice resets, and the retention garbage collector
    (a message is removable once it is processed and every slice that
    contains it has been reset, §2.3.3). *)

module Tree := Demaq_xml.Tree
module Value := Demaq_xquery.Value
module Store := Demaq_store.Message_store

type error =
  | Unknown_queue of string
  | Schema_violation of { queue : string; reason : string }
  | Fixed_property_set of { property : string }
  | Property_error of { property : string; reason : string }

val error_to_string : error -> string

exception Queue_error of error

type t

val create : ?clock:(unit -> int) -> Store.t -> t
(** [clock] supplies the virtual time tick used for the system timestamp
    property (defaults to a counter incremented per enqueue). Payloads are
    stored as compact binary {!Demaq_xml.Bxml}; reads also accept legacy
    XML text ({!Demaq_xml.Bxml.decode_any}). *)

val store : t -> Store.t

(** {1 Definitions} *)

val add_queue : t -> Defs.queue_def -> unit
val add_property : t -> Defs.property_def -> unit
val add_slicing : t -> Defs.slicing_def -> unit

val find_queue : t -> string -> Defs.queue_def option

val is_echo : t -> string -> bool
(** Whether the named queue is an echo queue: a scan of the (usually
    empty) list of echo queues, no hashing. *)

val find_slicing : t -> string -> Defs.slicing_def option
val queue_defs : t -> Defs.queue_def list

val set_collection : t -> string -> Tree.tree list -> unit
(** Master data exposed to rules via [fn:collection] (§3.5.2). *)

val collection : t -> string -> Tree.tree list

(** {1 Enqueue} *)

val enqueue :
  t ->
  Store.txn ->
  ?rule:string ->
  ?trigger:Message.t ->
  ?provenance:Message.provenance ->
  ?explicit:(string * Value.atomic) list ->
  queue:string ->
  payload:Tree.tree ->
  unit ->
  (Message.t, error) result
(** Computes properties (precedence: explicit, then inherited from
    [trigger], then the per-queue value expression), validates against the
    queue schema, records slice memberships at the slices' current
    lifetimes, and inserts the message. Durable iff the queue is
    persistent and the store is durable. [provenance] (default
    {!Message.no_provenance}) is persisted in the extra blob alongside the
    properties, so causal flow edges survive crash-restart. The message
    is {!admit}ted, then {!cache}d. If the transaction aborts, its cache
    entry and slice-index postings are removed again. *)

(** A message body as admission receives it. *)
type payload =
  | Tree of Tree.tree  (** parsed or built; encoded at admission *)
  | Bxml of { bytes : string; tree : Tree.tree Lazy.t }
      (** already encoded (a rule's [do enqueue]): stored as it is, and
          decoded only when something reads the tree. [tree] becomes the
          message's body; the caller keeps it too, so a tree a rejecting
          schema check decoded is not decoded again for the error
          message. *)

val bxml : string -> payload
(** The bytes with a lazy decode. *)

val admit :
  t ->
  Store.txn ->
  ?rule:string ->
  ?trigger:Message.t ->
  ?provenance:Message.provenance ->
  ?explicit:(string * Value.atomic) list ->
  queue:string ->
  payload:payload ->
  unit ->
  (Defs.queue_def * Message.t, error) result
(** {!enqueue} without the cache entry, also returning the definition of
    the queue it resolved, so the caller need not look the queue up again.
    The returned record holds the payload: the tree it was given, or the
    bytes with a lazy decode (forced here only by a schema check or a
    property expression, see {!Message.body_forced}); once the caller drops it,
    only the store record and the slice-index postings remain, and a later
    read ({!get}, {!queue_messages}, {!slice_messages}) builds and caches a
    record from the store. If the transaction aborts, the postings are
    removed through the memberships computed here, and a cache entry a
    read made in the meantime goes with them. *)

val cache : t -> Message.t -> unit
(** Keep the record as the rid's cache entry, so reads return it (with
    its payload tree) instead of building one from the store. The
    executor caches the messages it schedules. *)

(** {1 Reads} *)

val get : t -> int -> Message.t option
val queue_messages : t -> string -> Message.t list
(** Live messages of the queue, arrival order. *)

val cache_size : t -> int
(** Decoded messages currently cached: the {!cache}d ones and those a
    read built from the store (reads cache what they build, so node
    identity is stable across reads). Collected messages leave it, and so
    do messages whose creating transaction aborted. Retention GC, index
    rebuilds and {!admit} add nothing. The cache is a
    {!Demaq_store.Rid_table}: it holds a page of slots per page-aligned
    rid range with at least one cached message. *)

val queue_length : t -> string -> int
val unprocessed : t -> Message.t list

val slice_messages : t -> ?use_index:bool -> slicing:string -> key:string -> unit
  -> Message.t list
(** Messages of the slice's current lifetime. [use_index=true] (default)
    walks the materialized B-tree; [false] scans the underlying queues
    (the "merge the slice definition into the rules" baseline of §4.3). *)

val slice_keys : t -> slicing:string -> string list
(** Distinct keys currently present in the slicing's index. *)

val membership_current : t -> Message.t -> Message.membership -> bool

(** {1 Updates} *)

val mark_processed : t -> Store.txn -> Message.t -> unit

val reset_slice : t -> Store.txn -> slicing:string -> key:string -> unit
(** Begin a new lifetime: existing members become invisible (§2.3.2). *)

(** {1 Maintenance} *)

val deletable : t -> Message.t -> bool
(** §2.3.3: processed and contained in no current slice lifetime. *)

val gc : t -> int
(** Collect all deletable messages in one transaction; returns the count.
    Index entries and cache entries for the collected messages are
    dropped. *)

val gc_collect : t -> int list
(** Like {!gc} but returns the rids of the collected messages. Everything
    derived from a message lives on its cached {!Message.t}, so nothing
    else needs purging. An uncached message is judged from its store
    record's [processed] flag and blob memberships; no {!Message.t} is
    built for it. *)

val gc_step : t -> budget:int -> int list
(** Incremental {!gc_collect}: examine at most [budget] messages, resuming
    at an internal rid cursor that wraps at the end of the store, and
    collect the deletable ones among them. A maintenance tick costs
    O(budget) deletability checks instead of O(store); repeated calls
    eventually revisit every message. Like {!gc_collect}, it neither
    builds nor caches records. Returns the collected rids. *)

val gc_cursor : t -> int
(** The rid where the next {!gc_step} window starts. After a wrap it is
    {!Store.low_rid}: rids dropped by compaction are never walked again. *)

val rebuild_indexes : t -> unit
(** Rebuild all slice indexes from the store's records (after recovery:
    index data is derived, §4.1), without filling the cache. Called
    automatically by {!create}. *)

