(** The recoverable XML message store (the Natix substitute, §4.1).

    The store keeps the working set in memory and achieves durability with
    a redo-only write-ahead log plus checkpoint snapshots — the design that
    Demaq's append-only queue model enables: messages are never modified
    after creation, so there are no in-place updates to undo on disk.

    A transaction buffers its operations; they are applied to the in-memory
    state immediately (with undo closures for abort) and written to the log
    as one atomic, CRC-protected commit record. Recovery loads the latest
    snapshot and replays the intact prefix of the log.

    The [extra] field of a message is an opaque blob owned by the queue
    layer (it carries properties and slice memberships); the store never
    interprets it. *)

type stored_payload =
  | Inline of string
  | Spilled of Heap_file.rid * int
      (** out-of-line body in the heap file (record id, length) *)

type message = private {
  rid : int;  (** record id, unique and monotonically increasing *)
  queue : string;
  mutable stored : stored_payload;  (** serialized XML, possibly out of line *)
  extra : string;  (** opaque: properties + slice memberships *)
  enqueued_at : int;  (** virtual-clock tick *)
  mutable processed : bool;
  mutable deleted : bool;  (** tombstone until the next checkpoint *)
}

val payload_length : message -> int

type config = {
  dir : string option;  (** [None]: purely in-memory, no durability *)
  sync : Wal.sync_mode;  (** fsync per commit, or leave to the OS *)
  log_deletions : bool;
      (** when [false] (the paper's design), GC deletes are not logged;
          deletable messages are re-derived after recovery *)
  spill_threshold : int option;
      (** bodies larger than this many bytes are stored out of line in a
          slotted-page heap file and faulted in on demand; requires [dir] *)
}

val default_config : config
(** In-memory, no logging: for tests and transient stores. *)

val durable_config :
  ?sync:Wal.sync_mode -> ?log_deletions:bool -> ?spill_threshold:int -> string ->
  config
(** Durable store rooted at the given directory. *)

type t

val open_store : config -> t
(** Opens (and recovers, if durable state exists) a store. *)

val payload : t -> message -> string
(** The serialized XML body; faulted in through the buffer pool when it
    was spilled to the heap file. *)

val close : t -> unit
val locks : t -> Lock_manager.t

(** {1 Transactions} *)

type txn

val begin_txn : t -> txn
val txn_id : txn -> int

val insert :
  txn -> queue:string -> payload:string -> extra:string -> enqueued_at:int ->
  durable:bool -> int
(** Returns the new message's rid. [durable:false] (transient queues) skips
    the log; such messages are lost on restart by design (§2.1.1). *)

val mark_processed : txn -> int -> unit
val slice_reset : txn -> slicing:string -> key:string -> unit
(** Begins a new lifetime for the slice (§2.3.2). *)

val delete : txn -> int -> unit
(** Tombstones a message (used by the retention GC). Logged only when the
    store was configured with [log_deletions = true]. *)

val commit : txn -> unit
val abort : txn -> unit

(** {1 Group commit}

    Under {!Wal.Sync_batch} a commit appends its log record immediately but
    the fsync is deferred; {!barrier} hardens everything logged so far with
    one fsync (Gray's group commit). Callers that externalize effects —
    network transmissions, timer-armed retries — must wait for the barrier
    covering the committing transaction, or a crash could lose a commit
    whose effects already escaped. *)

val barrier : t -> bool
(** One fsync covering every commit since the last barrier. Returns [true]
    iff a sync was actually performed (mode is [Sync_batch] and commits
    were pending). No-op under [Sync_always] (each commit already synced).
    Under [Sync_never] (durability opted out) it writes the pending tail
    to the file without an fsync and returns [false]. *)

val durable_upto : t -> int
(** The highest transaction id known hardened on disk: every transaction
    with [txn_id <= durable_upto] survives a crash. Always 0 for in-memory
    or [Sync_never] stores. *)

val unsynced_commits : t -> int
(** Commit records appended but not yet covered by a barrier — the
    exposure of the current batch. Always 0 under [Sync_always]. *)

val unsynced_bytes : t -> int
(** WAL bytes appended but not yet covered by a barrier. An honest crash
    can lose at most this much of the log tail; simulated crashes bound
    their tears by it. Always 0 outside [Sync_batch]. *)

val wal_group_syncs : t -> int
(** Barriers that actually synced, without the O(messages) fold of
    {!stats} — the adaptive controller samples this every tick. *)

(** {1 Reads} *)

val get : t -> int -> message option
(** Live (non-deleted) message by rid. *)

val queue_rids : t -> string -> int list
(** Rids of live messages in a queue, in arrival order. *)

val queue_length : t -> string -> int
val fold_queue : t -> string -> ('a -> message -> 'a) -> 'a -> 'a
val fold_messages : t -> ('a -> message -> 'a) -> 'a -> 'a
(** Folds over every live message in no particular order, without the
    sort {!all_messages} pays. *)

val all_messages : t -> message list
(** Every live message, sorted by rid: a fold and sort of the whole
    table. *)

val low_rid : t -> int
(** No message (live or tombstoned) has a rid below this. It is the lowest
    rid present after any tombstone drop, so a scan of the rid range
    from [low_rid] up to [next_rid] skips what compaction has dropped. *)

val next_rid : t -> int
(** One past the highest rid ever allocated. *)

val slice_lifetime : t -> slicing:string -> key:string -> int
(** Current lifetime counter of the slice; 0 if never reset. *)

val unprocessed : t -> message list

(** {1 Maintenance} *)

val checkpoint : t -> unit
(** Writes a snapshot, drops tombstoned messages, truncates the log. When
    nothing reached the log or the heap file since the last checkpoint the
    snapshot write and its fsync are skipped (tombstones are still
    dropped). *)

val compact : t -> int
(** Log compaction: harden the pending group-commit batch, fold the state
    into a fresh snapshot ({!checkpoint}), and return the WAL bytes that
    retired. The snapshot rename is the commit point — a crash on either
    side of it loses nothing (the stale log's replay is idempotent
    against snapshot-loaded state). [0] when the store is in-memory or
    nothing new reached the log. *)

val compaction_due : t -> max_wal_bytes:int -> bool
(** True when the log has grown past [max_wal_bytes] since the last
    checkpoint (false for in-memory stores or [max_wal_bytes <= 0]) — the
    trigger the background maintenance tick polls. *)

type compaction_stage = Before_rename | After_rename

val set_compaction_fault : t -> (compaction_stage -> unit) option -> unit
(** Crash-injection hook around the compaction commit point; tests raise
    from it to simulate a torn compaction. [None] clears it. *)

type stats = {
  live_messages : int;
  tombstones : int;
  wal_bytes : int;
  wal_records : int;
  wal_syncs : int;
  wal_group_syncs : int;  (** barriers that actually synced *)
  checkpoints : int;
  spilled_payloads : int;
  inline_bytes : int;  (** memory held by inline bodies *)
}

val stats : t -> stats

val instrument : t -> Demaq_obs.Metrics.registry -> unit
(** Register the store's metrics: WAL fsync-latency / batch-fill
    histograms (clock hooks installed only when the registry's timing path
    is on) and callback counters/gauges over {!stats}. Call once per
    store+registry pair. *)
