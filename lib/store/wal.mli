(** The write-ahead log.

    Demaq's append-only queue model (§2.3.3, §4.1 of the paper) lets the
    log stay redo-only: transactions buffer their operations in memory and
    write one self-contained, CRC-protected [Commit] record at commit
    time. A record fully present in the log is committed; a torn tail
    (crash mid-write) is detected by length/CRC and ignored.

    Record framing: 8-byte length, 8-byte CRC-32, body.

    The append path is domain-safe with a single-writer discipline: an
    internal mutex serializes {!append} and {!barrier}, so transactions
    committing from several worker domains interleave whole records, never
    bytes, and one worker's barrier hardens every record appended before
    it (the group-commit fsync is shared fleet-wide). *)

type op =
  | Insert of {
      rid : int;
      queue : string;
      payload : string;
      extra : string;
      enqueued_at : int;
    }
  | Mark_processed of { rid : int }
  | Slice_reset of { slicing : string; key : string; lifetime : int }
  | Delete of { rid : int; image : string }
      (** [image] is the before-image of the deleted record. Demaq's
          append-only design never needs it (deletions are re-derived from
          retention state, §4.1); it is populated only when the store
          emulates traditional update-in-place logging (benchmark B6). *)

type record = Commit of { txn : int; ops : op list } | Checkpoint

type sync_mode =
  | Sync_always  (** fsync per appended record (commit durability) *)
  | Sync_never
      (** group commit without the fsync: records collect in the channel
          buffer and each {!barrier} writes them out in one go, leaving
          persistence to the OS page cache. A process crash loses the
          tail appended since the last barrier, as under [Sync_batch];
          nothing is ever known durable. *)
  | Sync_batch of { max_records : int; max_bytes : int }
      (** group commit: records append immediately but the fsync is
          deferred to the next {!barrier} (or to an automatic one when
          more than [max_records] records / [max_bytes] bytes are
          pending; 0 disables either trigger). Commit records are
          self-contained, so recovery is unchanged — a crash merely
          loses the unsynced tail of the current batch. *)

type t

val open_log : ?sync:sync_mode -> string -> t
(** Open (or create) the log file for appending. *)

val append : t -> record -> unit

val barrier : t -> bool
(** One fsync covering every record appended since the last one. Returns
    [true] iff a sync was actually performed — i.e. the mode is
    [Sync_batch] and records were pending. [Sync_always] needs no
    barrier. Under [Sync_never] the caller opted out of durability: the
    barrier writes the pending records to the file without an fsync and
    returns [false]. Either way, after a barrier every appended record is
    in the file, visible to {!replay}. *)

val close : t -> unit
(** Closes the log after a final barrier. *)

val reset : t -> unit
(** Truncate after a checkpoint: the snapshot now covers everything.
    Flushes the channel, then cuts the file to zero in place on the open
    [O_APPEND] descriptor, so the log keeps its inode and channel and the
    next {!append} lands at offset 0. Serialized with appends and
    barriers under the log mutex. Under [Sync_batch] the cut still frees
    the blocks earlier barriers synced. *)

val replay : string -> (record -> unit) -> int
(** Invoke the callback on every intact record of a log file, stopping
    silently at the first truncated or corrupt record. Missing files
    replay as empty. Returns the byte length of the intact prefix — a
    recovery that will append to the file again must truncate it to that
    length first, or the records it appends after the torn tail will be
    invisible to every future replay. *)

(** {1 Introspection (benchmarks B6/B10/B11)} *)

val bytes_written : t -> int
val records_written : t -> int
val syncs_performed : t -> int

val group_syncs_performed : t -> int
(** Barriers that actually synced (each covered a whole batch). *)

val pending_records : t -> int
(** Records appended since the last barrier — the exposure of the current
    batch. Always 0 under [Sync_always]. *)

val pending_bytes : t -> int
(** Bytes appended since the last barrier. A crash can lose at most this
    much of the tail; fault injection uses it to bound a simulated tear to
    data a real crash could actually have lost. *)

val set_instruments :
  t ->
  ?clock_ns:(unit -> int) ->
  ?on_fsync:(int -> unit) ->
  ?on_batch:(int -> unit) ->
  unit ->
  unit
(** Install observability hooks, called under the log mutex at each fsync:
    [on_fsync] gets the fsync duration in ns (the clock is not read when
    the hook is absent), [on_batch] the record count the sync covered
    (group commit batch fill). [clock_ns] replaces the clock that times
    fsyncs (default wall clock; a simulation passes its virtual source).
    Passing no hook clears both. *)
