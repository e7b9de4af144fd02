(* The write-ahead log.

   Demaq's append-only queue model (§2.3.3, §4.1) lets the log stay
   redo-only: transactions buffer their operations in memory and write one
   self-contained, CRC-protected [Commit] record at commit time. A record
   that is fully present in the log is committed; a torn tail is ignored.

   Record framing: [8-byte length][8-byte crc32][body]. *)

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
      (* [image] is the before-image of the deleted record. Demaq's
         append-only design never needs it (deletions are re-derived from
         retention state, §4.1); it is populated only when the store is
         configured to emulate traditional update-in-place logging, which
         must retain before-images for undo. *)

type record =
  | Commit of { txn : int; ops : op list }
  | Checkpoint

module W = Codec.Writer

type sync_mode =
  | Sync_always
  | Sync_never
  | Sync_batch of { max_records : int; max_bytes : int }

(* Single-writer invariant: all appends and barriers funnel through [mu],
   so the log is a strictly serial byte stream even when transactions
   commit from several worker domains. The scratch writer is safe to
   reuse for the same reason. *)
type t = {
  mu : Mutex.t;
  oc : out_channel;
  fd : Unix.file_descr;
  sync : sync_mode;
  scratch : W.t;
      (* each record is framed and encoded into this, reused: 16 header
         bytes, then the body *)
  mutable bytes : int;
  mutable records : int;
  mutable syncs : int;
  mutable group_syncs : int;
  mutable pending_records : int;  (* appended since the last fsync (Sync_batch) *)
  mutable pending_bytes : int;
  (* observability hooks (set by Message_store.instrument). [on_fsync]
     receives the wall-clock fsync duration in ns — the clock is only read
     when the hook is installed, so an uninstrumented log never pays for
     timing. [on_batch] receives the record count a sync covered. *)
  mutable on_fsync : (int -> unit) option;
  mutable on_batch : (int -> unit) option;
  mutable clock_ns : unit -> int;  (* times fsyncs for [on_fsync] *)
}

let encode_op w op =
  match op with
  | Insert { rid; queue; payload; extra; enqueued_at } ->
    W.char w 'I';
    W.int w rid;
    W.string w queue;
    W.string w payload;
    W.string w extra;
    W.int w enqueued_at
  | Mark_processed { rid } ->
    W.char w 'P';
    W.int w rid
  | Slice_reset { slicing; key; lifetime } ->
    W.char w 'R';
    W.string w slicing;
    W.string w key;
    W.int w lifetime
  | Delete { rid; image } ->
    W.char w 'D';
    W.int w rid;
    W.string w image

(* Queue names recur in every [Insert] record; interning them makes a
   large-log replay share one string per distinct queue instead of
   allocating a copy per message. *)
let interned_queues : (string, string) Hashtbl.t = Hashtbl.create 32

let intern_queue s =
  match Hashtbl.find_opt interned_queues s with
  | Some s -> s
  | None ->
    if Hashtbl.length interned_queues < 1024 then Hashtbl.add interned_queues s s;
    s

let decode_op r =
  match Codec.get_char r with
  | 'I' ->
    let rid = Codec.get_int r in
    let queue = intern_queue (Codec.get_string r) in
    let payload = Codec.get_string r in
    let extra = Codec.get_string r in
    let enqueued_at = Codec.get_int r in
    Insert { rid; queue; payload; extra; enqueued_at }
  | 'P' -> Mark_processed { rid = Codec.get_int r }
  | 'R' ->
    let slicing = Codec.get_string r in
    let key = Codec.get_string r in
    let lifetime = Codec.get_int r in
    Slice_reset { slicing; key; lifetime }
  | 'D' ->
    let rid = Codec.get_int r in
    let image = Codec.get_string r in
    Delete { rid; image }
  | c -> raise (Codec.Decode_error (Printf.sprintf "unknown op tag %C" c))

let encode_record_into w rec_ =
  match rec_ with
  | Commit { txn; ops } ->
    W.char w 'C';
    W.int w txn;
    W.list w encode_op ops
  | Checkpoint -> W.char w 'K'

let decode_record r =
  match Codec.get_char r with
  | 'C' ->
    let txn = Codec.get_int r in
    let ops = Codec.get_list r decode_op in
    Commit { txn; ops }
  | 'K' -> Checkpoint
  | c -> raise (Codec.Decode_error (Printf.sprintf "unknown record tag %C" c))

(* Scratch capacity kept between records; a larger one (a big payload)
   is dropped after its append. *)
let scratch_keep = 1 lsl 16

let open_log ?(sync = Sync_always) path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  let fd = Unix.descr_of_out_channel oc in
  let bytes = (Unix.fstat fd).Unix.st_size in
  {
    mu = Mutex.create ();
    oc;
    fd;
    sync;
    scratch = W.create 4096;
    bytes;
    records = 0;
    syncs = 0;
    group_syncs = 0;
    pending_records = 0;
    pending_bytes = 0;
    on_fsync = None;
    on_batch = None;
    clock_ns = (fun () -> int_of_float (Unix.gettimeofday () *. 1e9));
  }

let set_instruments t ?clock_ns ?on_fsync ?on_batch () =
  Mutex.protect t.mu @@ fun () ->
  (match clock_ns with Some c -> t.clock_ns <- c | None -> ());
  t.on_fsync <- on_fsync;
  t.on_batch <- on_batch

let do_fsync t =
  (match t.on_fsync with
   | None ->
     flush t.oc;
     Unix.fsync t.fd
   | Some observe ->
     let t0 = t.clock_ns () in
     flush t.oc;
     Unix.fsync t.fd;
     observe (t.clock_ns () - t0));
  (match t.on_batch with
   | Some observe when t.pending_records > 0 -> observe t.pending_records
   | _ -> ());
  t.syncs <- t.syncs + 1;
  t.pending_records <- 0;
  t.pending_bytes <- 0

(* One fsync covering every record appended since the last one. Commit
   records are self-contained (recovery replays whatever intact prefix is
   on disk), so Sync_batch can defer this barrier and amortize it over a
   whole batch of transactions — Gray's group commit. Because barriers are
   serialized with appends under [mu], one worker's barrier hardens every
   commit any worker appended before it: the fsync is amortized
   fleet-wide, not per-domain. [Sync_never] groups its writes the same
   way and only skips the fsync: the barrier hands the pending tail to
   the OS in one write, so a process crash loses at most what a
   [Sync_batch] crash loses, and nothing becomes durable. *)
let barrier_unlocked t =
  if t.pending_records = 0 then false
  else
    match t.sync with
    | Sync_batch _ ->
      do_fsync t;
      t.group_syncs <- t.group_syncs + 1;
      true
    | Sync_never ->
      flush t.oc;
      t.pending_records <- 0;
      t.pending_bytes <- 0;
      false
    | Sync_always -> false

let barrier t = Mutex.protect t.mu (fun () -> barrier_unlocked t)

let append t rec_ =
  Mutex.protect t.mu @@ fun () ->
  let w = t.scratch in
  W.clear w;
  (* the frame header is patched in once the body's length is known; the
     CRC and the write read the body where it was encoded *)
  W.int w 0;
  W.int w 0;
  encode_record_into w rec_;
  let total = W.length w in
  let len = total - 16 in
  W.set_int w 0 len;
  W.set_int w 8 (Crc32.sub (Bytes.unsafe_to_string (W.bytes w)) 16 len);
  output t.oc (W.bytes w) 0 total;
  W.shrink w ~keep:scratch_keep;
  t.bytes <- t.bytes + total;
  t.records <- t.records + 1;
  match t.sync with
  | Sync_always -> do_fsync t
  | (Sync_never | Sync_batch _) as sync -> (
    t.pending_records <- t.pending_records + 1;
    t.pending_bytes <- t.pending_bytes + total;
    match sync with
    | Sync_batch { max_records; max_bytes }
      when (max_records > 0 && t.pending_records >= max_records)
           || (max_bytes > 0 && t.pending_bytes >= max_bytes) ->
      ignore (barrier_unlocked t)
    | _ -> ())

let bytes_written t = t.bytes
let records_written t = t.records
let syncs_performed t = t.syncs
let group_syncs_performed t = t.group_syncs
let pending_records t = Mutex.protect t.mu (fun () -> t.pending_records)
let pending_bytes t = Mutex.protect t.mu (fun () -> t.pending_bytes)

let close t =
  (* an orderly shutdown hardens the tail of the last batch *)
  ignore (barrier t);
  close_out t.oc

(* Truncate after a checkpoint: the snapshot now covers everything. The
   file is cut in place on the descriptor [open_log] opened with
   [O_APPEND], so the next append lands at offset 0 of the same inode.
   Closing a log reopened with [O_TRUNC] instead makes ext4 flush it on
   close (its replace-via-truncate heuristic), a stall of tens of
   milliseconds per compaction. *)
let reset t =
  Mutex.protect t.mu @@ fun () ->
  flush t.oc;
  Unix.ftruncate t.fd 0;
  t.bytes <- 0;
  t.pending_records <- 0;
  t.pending_bytes <- 0

(* Replay a log file, invoking [f] on every intact record. Stops silently at
   the first truncated or corrupt record (torn tail after a crash) and
   returns the byte length of the intact prefix. The caller that reopens
   the log for appending MUST truncate the file to that length first:
   [open_log] appends at the physical end of file, so bytes written after
   a surviving torn tail would be unreachable to every future replay. *)
let replay path f =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in_bin path in
    let size = in_channel_length ic in
    let contents = really_input_string ic size in
    close_in ic;
    (* each record is checksummed and decoded in place; the reader is
       bounded to the record, so a CRC-valid but malformed body fails to
       decode instead of reading into the next record *)
    let valid = ref 0 in
    let ok = ref true in
    while !ok && !valid + 16 <= size do
      let start = !valid + 16 in
      let len = Int64.to_int (String.get_int64_le contents !valid) in
      let crc = Int64.to_int (String.get_int64_le contents (!valid + 8)) in
      match
        if len < 0 || len > size - start || Crc32.sub contents start len <> crc
        then None
        else Some (decode_record (Codec.reader ~pos:start ~len contents))
      with
      | Some rec_ ->
        f rec_;
        valid := start + len
      | None | (exception _) -> ok := false
    done;
    !valid
  end
