(* Message bodies are kept inline in memory, or spilled out of line to the
   slotted-page heap file when they exceed the configured threshold — the
   store then holds only a (page, slot) reference and the body is faulted
   in through the buffer pool on access. *)
type stored_payload =
  | Inline of string
  | Spilled of Heap_file.rid * int  (* record id in the heap file, length *)

let log = Logs.Src.create "demaq.store" ~doc:"Demaq message store"

module Log = (val Logs.src_log log : Logs.LOG)

type message = {
  rid : int;
  queue : string;
  mutable stored : stored_payload;
  extra : string;
  enqueued_at : int;
  mutable processed : bool;
}

type config = {
  dir : string option;
  sync : Wal.sync_mode;
  log_deletions : bool;
  spill_threshold : int option;
      (* payloads strictly larger than this many bytes live in the heap
         file; None keeps everything in memory. Requires [dir]. *)
}

let default_config =
  { dir = None; sync = Wal.Sync_never; log_deletions = false; spill_threshold = None }

let durable_config ?(sync = Wal.Sync_always) ?(log_deletions = false)
    ?spill_threshold dir =
  { dir = Some dir; sync; log_deletions; spill_threshold }

type t = {
  config : config;
  wal : Wal.t option;
  heap : Heap_file.t option;  (* large-payload store *)
  messages : message Rid_table.t;
  queues : (string, int Vec.t) Hashtbl.t;
  slice_lifetimes : (string * string, int) Hashtbl.t;
  mutable next_rid : int;
  mutable low_rid : int;
      (* no rid below it is in [messages]: lowered by inserts, raised to
         the lowest rid present by a checkpoint that follows deletes *)
  mutable tombstones : int;  (* deletes since the last checkpoint *)
  shrunk : (string, unit) Hashtbl.t;  (* the queues they left: vectors to filter *)
  mutable unfreed : Heap_file.rid list;  (* their spilled bodies' heap records *)
  mutable spilled : int;  (* heap records held, [unfreed] included *)
  mutable inline_bytes : int;  (* bytes of the inline bodies in [messages] *)
  mutable next_txn : int;
  mutable checkpoints : int;
  mutable last_logged_txn : int;  (* highest txn with a WAL commit record *)
  mutable durable_txn : int;  (* highest txn known synced to disk *)
  mutable wal_records_at_checkpoint : int;
      (* [Wal.records_written] as of the last checkpoint; -1 forces the
         first checkpoint after a recovery replay (the log must still be
         truncated even if this session wrote nothing new) *)
  mutable snapshot_seq : int;
      (* sequence number of the newest committed snapshot slot; 0 before
         the first (a legacy single-file snapshot counts as 0) *)
  mutable compaction_fault : (compaction_stage -> unit) option;
      (* crash-injection hook around the checkpoint/compaction commit
         point (tests raise from it to simulate a torn compaction) *)
  mutable compaction_seconds : Demaq_obs.Metrics.histogram option;
      (* set by [instrument] when the registry's timing path is on *)
}

and compaction_stage = Before_commit | After_commit

(* the empty slot of [messages] *)
let no_message =
  { rid = -1; queue = ""; stored = Inline ""; extra = ""; enqueued_at = 0;
    processed = false }

let heap t =
  match t.heap with
  | Some heap -> heap
  | None -> invalid_arg "Message_store: spilled payload without a heap file"

let payload t m =
  match m.stored with Inline s -> s | Spilled (rid, _) -> Heap_file.read (heap t) rid

let payload_length m =
  match m.stored with Inline s -> String.length s | Spilled (_, len) -> len

(* Spill policy: configured, and worth it. *)
let should_spill t s =
  match t.config.spill_threshold, t.heap with
  | Some threshold, Some _ -> String.length s > threshold
  | _ -> false

let spill t s =
  t.spilled <- t.spilled + 1;
  Spilled (Heap_file.insert (heap t) s, String.length s)

let free_spilled t hrid =
  t.spilled <- t.spilled - 1;
  Heap_file.free (heap t) hrid

let queue_vec t queue =
  match Hashtbl.find_opt t.queues queue with
  | Some v -> v
  | None ->
    let v = Vec.create ~dummy:(-1) in
    Hashtbl.replace t.queues queue v;
    v

(* ---- applying operations to the in-memory state ---- *)

(* The gauges [stats] reports are counters kept here, at every point an
   entry enters or leaves [messages] and wherever a heap record is
   inserted or freed ([spill], [free_spilled]), so reading them never
   walks the table. *)
let inline_length m = match m.stored with Inline s -> String.length s | Spilled _ -> 0

let add_entry t m =
  if m.rid < t.low_rid || Rid_table.length t.messages = 0 then t.low_rid <- m.rid;
  Rid_table.set t.messages m.rid m;
  t.inline_bytes <- t.inline_bytes + inline_length m

let remove_entry t m =
  Rid_table.remove t.messages m.rid;
  t.inline_bytes <- t.inline_bytes - inline_length m

(* A deleted message leaves [messages] at once, so no old page keeps a
   collected record, payload or extra for the minor collector to promote.
   Its rid stays in its queue vector (reads skip it), and a spilled body
   its heap record (the snapshot on disk may name it), until the next
   checkpoint. *)
let remove_deleted t m =
  remove_entry t m;
  t.tombstones <- t.tombstones + 1;
  Hashtbl.replace t.shrunk m.queue ()

let release_body t m =
  match m.stored with Spilled (hrid, _) -> t.unfreed <- hrid :: t.unfreed | Inline _ -> ()

let apply_insert t ~rid ~queue ~stored ~extra ~enqueued_at =
  let m = { rid; queue; stored; extra; enqueued_at; processed = false } in
  add_entry t m;
  Vec.push (queue_vec t queue) rid;
  if rid >= t.next_rid then t.next_rid <- rid + 1;
  m

(* Recovery must degrade, never crash, on a corrupt payload (the same
   contract as torn-tail WAL truncation): a record whose binary payload
   fails structural validation is skipped with a warning, and later
   operations referencing its rid fall through harmlessly. Only binary
   payloads can be checked — they are self-describing; legacy text
   payloads stay opaque here and surface errors at decode time, where
   the executor's §3.6 error routing absorbs them. *)
let payload_replayable payload =
  (not (Demaq_xml.Bxml.is_binary payload)) || Demaq_xml.Bxml.validate payload

let apply_op t (op : Wal.op) =
  match op with
  | Wal.Insert { rid; queue; payload; extra; enqueued_at } ->
    if Rid_table.mem t.messages rid then
      (* a crash between the snapshot slot's fsync and the WAL truncation
         leaves the old log alongside the new snapshot; replaying its
         inserts on top of the snapshot-loaded message would push the rid
         into the queue vec a second time and enumerate it twice *)
      ()
    else if payload_replayable payload then
      (* recovery replay keeps bodies inline; the next checkpoint re-spills
         anything above the threshold and the orphan sweep reclaims the
         pre-crash heap records *)
      ignore (apply_insert t ~rid ~queue ~stored:(Inline payload) ~extra ~enqueued_at)
    else
      Log.warn (fun f ->
          f "WAL replay: skipping #%d (queue %s): corrupt binary payload" rid queue)
  | Wal.Mark_processed { rid } -> (
    match Rid_table.find_opt t.messages rid with
    | Some m -> m.processed <- true
    | None -> ())
  | Wal.Slice_reset { slicing; key; lifetime } ->
    Hashtbl.replace t.slice_lifetimes (slicing, key) lifetime
  | Wal.Delete { rid; _ } -> (
    match Rid_table.find_opt t.messages rid with
    | Some m ->
      remove_deleted t m;
      release_body t m
    | None -> ())

(* ---- snapshots ----

   A snapshot lives in one of two slot files, [snapshot.0] and
   [snapshot.1], laid out as [8-byte seq][8-byte len][8-byte crc32][body].
   The checkpoint with sequence number [seq] overwrites slot [seq land 1]
   in place and never touches the other slot, which holds the previous
   snapshot, so a valid snapshot is on disk at every instant. Bytes past
   [len] are the tail of an older, longer snapshot. *)

let slot_path dir i = Filename.concat dir (Printf.sprintf "snapshot.%d" i)
let slot_header = 24

(* the single-file snapshot of earlier versions: a bare body *)
let legacy_snapshot_path dir = Filename.concat dir "snapshot.bin"
let wal_path dir = Filename.concat dir "wal.log"

module W = Codec.Writer

let encode_snapshot t =
  let w = W.create 4096 in
  W.int w t.next_rid;
  W.list w
    (fun w m ->
      W.int w m.rid;
      W.string w m.queue;
      (* checkpoint is also when late (recovery-replayed) large bodies
         move out of line *)
      (match m.stored with
       | Inline s when should_spill t s ->
         t.inline_bytes <- t.inline_bytes - String.length s;
         m.stored <- spill t s
       | _ -> ());
      (match m.stored with
       | Inline s ->
         W.bool w false;
         W.string w s
       | Spilled (hrid, len) ->
         W.bool w true;
         W.int w hrid.Heap_file.page;
         W.int w hrid.Heap_file.slot;
         W.int w len);
      W.string w m.extra;
      W.int w m.enqueued_at;
      W.bool w m.processed)
    (List.rev (Rid_table.fold (fun _ m acc -> m :: acc) t.messages []));
  let lifetimes =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.slice_lifetimes []
  in
  W.list w
    (fun w ((slicing, key), lifetime) ->
      W.string w slicing;
      W.string w key;
      W.int w lifetime)
    lifetimes;
  W.contents w

let load_snapshot t contents ~pos ~len =
  let r = Codec.reader ~pos ~len contents in
  t.next_rid <- Codec.get_int r;
  let messages =
    Codec.get_list r (fun r ->
        let rid = Codec.get_int r in
        let queue = Codec.get_string r in
        let stored =
          if Codec.get_bool r then begin
            let page = Codec.get_int r in
            let slot = Codec.get_int r in
            let len = Codec.get_int r in
            Spilled ({ Heap_file.page; slot }, len)
          end
          else Inline (Codec.get_string r)
        in
        let extra = Codec.get_string r in
        let enqueued_at = Codec.get_int r in
        let processed = Codec.get_bool r in
        (rid, queue, stored, extra, enqueued_at, processed))
  in
  List.iter
    (fun (rid, queue, stored, extra, enqueued_at, processed) ->
      (* same degrade-not-crash contract as WAL replay; spilled payloads
         stay out of line (unvalidated here — they fault in lazily) and
         surface any corruption at decode time instead *)
      match stored with
      | Inline payload when not (payload_replayable payload) ->
        Log.warn (fun f ->
            f "snapshot: skipping #%d (queue %s): corrupt binary payload" rid queue)
      | _ ->
        let m = apply_insert t ~rid ~queue ~stored ~extra ~enqueued_at in
        m.processed <- processed;
        (match stored with Spilled _ -> t.spilled <- t.spilled + 1 | Inline _ -> ()))
    messages;
  let lifetimes =
    Codec.get_list r (fun r ->
        let slicing = Codec.get_string r in
        let key = Codec.get_string r in
        let lifetime = Codec.get_int r in
        ((slicing, key), lifetime))
  in
  List.iter (fun (k, v) -> Hashtbl.replace t.slice_lifetimes k v) lifetimes

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The sequence number in a slot's header, -1 when there is none. It only
   orders the candidates; [valid_slot] decides. *)
let slot_seq dir i =
  match
    In_channel.with_open_bin (slot_path dir i) (fun ic ->
        In_channel.really_input_string ic 8)
  with
  | Some s -> Int64.to_int (String.get_int64_le s 0)
  | None | (exception Sys_error _) -> -1

(* A slot holds a committed snapshot when its body fits the file, the CRC
   matches and the sequence number belongs to this slot. *)
let valid_slot dir i =
  let contents = read_file (slot_path dir i) in
  let size = String.length contents in
  if size < slot_header then None
  else
    let seq = Int64.to_int (String.get_int64_le contents 0) in
    let len = Int64.to_int (String.get_int64_le contents 8) in
    let crc = Int64.to_int (String.get_int64_le contents 16) in
    if seq < 1 || seq land 1 <> i || len < 0 || len > size - slot_header
       || Crc32.sub contents slot_header len <> crc
    then None
    else Some (seq, contents, len)

(* Load the valid slot with the highest sequence number; failing that, a
   legacy single-file snapshot as sequence 0. *)
let load_newest_snapshot t dir =
  let newest_first =
    List.sort (fun a b -> compare b a)
      (List.filter (fun (seq, _) -> seq > 0) [ (slot_seq dir 0, 0); (slot_seq dir 1, 1) ])
  in
  let legacy = legacy_snapshot_path dir in
  match List.find_map (fun (_, i) -> valid_slot dir i) newest_first with
  | Some (seq, contents, len) ->
    load_snapshot t contents ~pos:slot_header ~len;
    t.snapshot_seq <- seq
  | None when Sys.file_exists legacy ->
    let contents = read_file legacy in
    load_snapshot t contents ~pos:0 ~len:(String.length contents)
  | None -> ()

(* Overwrite slot [seq land 1] from offset 0 — no [O_TRUNC], no rename.
   Freeing blocks that already reached disk (an unlink, a rename over the
   old file, a truncate) costs tens of milliseconds on ext4; an in-place
   write plus fsync costs well under one. The fsync is the commit point.
   A slot file created here also needs its directory entry on disk
   before the log it replaces may be truncated. *)
let write_slot dir seq body =
  let path = slot_path dir (seq land 1) in
  let created = not (Sys.file_exists path) in
  let header = Bytes.create slot_header in
  Bytes.set_int64_le header 0 (Int64.of_int seq);
  Bytes.set_int64_le header 8 (Int64.of_int (String.length body));
  Bytes.set_int64_le header 16 (Int64.of_int (Crc32.string body));
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 path in
  output_bytes oc header;
  output_string oc body;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  if created then begin
    let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
  end

(* ---- open / recovery ---- *)

(* Reclaim heap records no live message references (left behind when a
   crash separated the WAL from the heap file). A replayed delete's body
   is not an orphan: the checkpoint frees it with the others. *)
let sweep_heap_orphans t =
  match t.heap with
  | None -> ()
  | Some heap ->
    let referenced = Hashtbl.create 64 in
    List.iter (fun hrid -> Hashtbl.replace referenced hrid ()) t.unfreed;
    Rid_table.iter
      (fun _ m ->
        match m.stored with
        | Spilled (hrid, _) -> Hashtbl.replace referenced hrid ()
        | Inline _ -> ())
      t.messages;
    let orphans = ref [] in
    Heap_file.iter heap (fun hrid _ ->
        if not (Hashtbl.mem referenced hrid) then orphans := hrid :: !orphans);
    List.iter (Heap_file.free heap) !orphans

let open_store config =
  let heap =
    match config.dir, config.spill_threshold with
    | Some dir, Some _ ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      Some (Heap_file.create (Filename.concat dir "payloads.db"))
    | _ -> None
  in
  let t =
    {
      config;
      wal = None;
      heap;
      messages = Rid_table.create ~dummy:no_message;
      queues = Hashtbl.create 16;
      slice_lifetimes = Hashtbl.create 64;
      next_rid = 1;
      low_rid = 1;
      tombstones = 0;
      shrunk = Hashtbl.create 8;
      unfreed = [];
      spilled = 0;
      inline_bytes = 0;
      next_txn = 1;
      checkpoints = 0;
      last_logged_txn = 0;
      durable_txn = 0;
      wal_records_at_checkpoint = 0;
      snapshot_seq = 0;
      compaction_fault = None;
      compaction_seconds = None;
    }
  in
  match config.dir with
  | None -> t
  | Some dir ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    load_newest_snapshot t dir;
    let valid =
      Wal.replay (wal_path dir) (function
        | Wal.Commit { ops; _ } -> List.iter (apply_op t) ops
        | Wal.Checkpoint -> ())
    in
    (* replay appends inserts in commit order; a queue is in rid
       (arrival) order, as it was before the crash *)
    Hashtbl.iter (fun _ v -> Vec.sort Int.compare v) t.queues;
    (* cut off any torn tail before reopening in append mode: records
       appended after surviving garbage would never replay *)
    (if Sys.file_exists (wal_path dir) then
       let size = (Unix.stat (wal_path dir)).Unix.st_size in
       if valid < size then Unix.truncate (wal_path dir) valid);
    sweep_heap_orphans t;
    let wal = Wal.open_log ~sync:config.sync (wal_path dir) in
    {
      t with
      wal = Some wal;
      (* a non-empty recovered log must be truncated by the next
         checkpoint even if no new records are written this session *)
      wal_records_at_checkpoint = (if Wal.bytes_written wal > 0 then -1 else 0);
    }

let close t =
  Option.iter Wal.close t.wal;
  Option.iter Heap_file.close t.heap

(* ---- transactions ---- *)

type txn = {
  id : int;
  store : t;
  mutable ops : Wal.op list;  (* reversed; only the durable ones *)
  mutable undo : (unit -> unit) list;
  mutable on_commit : (unit -> unit) list;  (* reversed; dropped on abort *)
  mutable finished : bool;
}

let begin_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  { id; store = t; ops = []; undo = []; on_commit = []; finished = false }

let check_active txn =
  if txn.finished then invalid_arg "transaction already finished"

let insert ?(on_undo = ignore) txn ~queue ~payload ~extra ~enqueued_at ~durable =
  check_active txn;
  let t = txn.store in
  let rid = t.next_rid in
  let stored = if should_spill t payload then spill t payload else Inline payload in
  let m = apply_insert t ~rid ~queue ~stored ~extra ~enqueued_at in
  if durable then
    txn.ops <- Wal.Insert { rid; queue; payload; extra; enqueued_at } :: txn.ops;
  txn.undo <-
    (fun () ->
      (match stored with Spilled (hrid, _) -> free_spilled t hrid | Inline _ -> ());
      remove_entry t m;
      Vec.filter_in_place (fun r -> r <> rid) (queue_vec t queue);
      on_undo rid)
    :: txn.undo;
  rid

let mark_processed txn rid =
  check_active txn;
  match Rid_table.find_opt txn.store.messages rid with
  | None -> ()
  | Some m ->
    if not m.processed then begin
      m.processed <- true;
      txn.ops <- Wal.Mark_processed { rid } :: txn.ops;
      txn.undo <- (fun () -> m.processed <- false) :: txn.undo
    end

let on_commit txn f =
  check_active txn;
  txn.on_commit <- f :: txn.on_commit

let slice_reset txn ~slicing ~key =
  check_active txn;
  let t = txn.store in
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.slice_lifetimes (slicing, key)) in
  let lifetime = prev + 1 in
  Hashtbl.replace t.slice_lifetimes (slicing, key) lifetime;
  txn.ops <- Wal.Slice_reset { slicing; key; lifetime } :: txn.ops;
  txn.undo <-
    (fun () -> Hashtbl.replace t.slice_lifetimes (slicing, key) prev) :: txn.undo

let delete txn rid =
  check_active txn;
  let t = txn.store in
  match Rid_table.find_opt t.messages rid with
  | None -> ()
  | Some m ->
    if t.config.log_deletions then
      (* emulate update-in-place logging: the before-image rides along *)
      txn.ops <- Wal.Delete { rid; image = payload t m } :: txn.ops;
    remove_deleted t m;
    txn.undo <- (fun () -> add_entry t m; t.tombstones <- t.tombstones - 1) :: txn.undo;
    txn.on_commit <- (fun () -> release_body t m) :: txn.on_commit

let commit txn =
  check_active txn;
  txn.finished <- true;
  let t = txn.store in
  (match t.wal with
   | Some wal when txn.ops <> [] ->
     Wal.append wal (Wal.Commit { txn = txn.id; ops = List.rev txn.ops });
     t.last_logged_txn <- txn.id;
     (* under [Sync_always] (or an auto-barrier that just fired) nothing is
        pending, so the commit is already hardened *)
     if t.config.sync <> Wal.Sync_never && Wal.pending_records wal = 0 then
       t.durable_txn <- txn.id
   | _ -> ());
  List.iter (fun f -> f ()) (List.rev txn.on_commit)

(* ---- group commit ---- *)

let barrier t =
  match t.wal with
  | None -> false
  | Some wal ->
    let synced = Wal.barrier wal in
    if t.config.sync <> Wal.Sync_never && Wal.pending_records wal = 0 then
      t.durable_txn <- t.last_logged_txn;
    synced

let durable_upto t = t.durable_txn
let unsynced_commits t =
  match t.wal with Some wal -> Wal.pending_records wal | None -> 0

let unsynced_bytes t =
  match t.wal with Some wal -> Wal.pending_bytes wal | None -> 0

let wal_count f t = match t.wal with Some w -> f w | None -> 0
let wal_group_syncs t = wal_count Wal.group_syncs_performed t

let abort txn =
  check_active txn;
  txn.finished <- true;
  List.iter (fun undo -> undo ()) txn.undo

(* ---- reads ---- *)

let get t rid = Rid_table.find_opt t.messages rid

let queue_rids t queue =
  match Hashtbl.find_opt t.queues queue with
  | None -> []
  | Some v ->
    List.rev
      (Vec.fold
         (fun acc rid -> match get t rid with Some _ -> rid :: acc | None -> acc)
         [] v)

let fold_queue t queue f acc =
  match Hashtbl.find_opt t.queues queue with
  | None -> acc
  | Some v ->
    Vec.fold
      (fun acc rid -> match get t rid with Some m -> f acc m | None -> acc)
      acc v

let queue_length t queue = fold_queue t queue (fun n _ -> n + 1) 0

let low_rid t = t.low_rid
let next_rid t = t.next_rid
let pages t = Rid_table.pages t.messages

let fold_messages t f init = Rid_table.fold (fun _ m acc -> f acc m) t.messages init

let all_messages t = List.rev (fold_messages t (fun acc m -> m :: acc) [])

let slice_lifetime t ~slicing ~key =
  Option.value ~default:0 (Hashtbl.find_opt t.slice_lifetimes (slicing, key))

let unprocessed t =
  List.filter (fun m -> not m.processed) (all_messages t)

(* ---- maintenance ---- *)

(* What the deletes since the last checkpoint left behind: their heap
   records, and their rids in the vectors of the queues they left (a
   dropped rid is one no longer in the table). O(deletes + those queues'
   lengths), never a walk of the table. *)
let drop_tombstones t =
  List.iter (free_spilled t) t.unfreed;
  t.unfreed <- [];
  Hashtbl.iter
    (fun queue () -> Vec.filter_in_place (Rid_table.mem t.messages) (queue_vec t queue))
    t.shrunk;
  Hashtbl.clear t.shrunk;
  if t.tombstones > 0 then
    t.low_rid <- Option.value ~default:t.next_rid (Rid_table.lowest t.messages);
  t.tombstones <- 0

let checkpoint t =
  (match t.config.dir with
   | None -> ()
   | Some dir ->
     let wal_records =
       match t.wal with Some wal -> Wal.records_written wal | None -> 0
     in
     let heap_dirty =
       match t.heap with Some heap -> Heap_file.dirty_pages heap | None -> 0
     in
     if wal_records = t.wal_records_at_checkpoint && heap_dirty = 0 then
       (* nothing reached the log or the heap since the last checkpoint:
          the snapshot on disk is already current, skip the flush+fsync *)
       ()
     else begin
       (* encoding may spill late bodies into the heap, and the snapshot
          references heap rids: the heap must be durable before the slot *)
       let body = encode_snapshot t in
       Option.iter Heap_file.flush_pages t.heap;
       (* the slot's fsync is the commit point of the compaction: before
          it the previous slot + full WAL are authoritative, after it the
          new slot is — either way a crash loses nothing. The fault hook
          lets tests crash on both sides of the point. *)
       let seq = t.snapshot_seq + 1 in
       (match t.compaction_fault with Some f -> f Before_commit | None -> ());
       write_slot dir seq body;
       t.snapshot_seq <- seq;
       (match t.compaction_fault with Some f -> f After_commit | None -> ());
       Option.iter Wal.reset t.wal;
       (* a committed slot supersedes the single-file snapshot *)
       (let legacy = legacy_snapshot_path dir in
        if Sys.file_exists legacy then Sys.remove legacy);
       t.wal_records_at_checkpoint <- wal_records;
       (* everything logged so far now lives in the fsynced snapshot *)
       t.durable_txn <- t.last_logged_txn
     end);
  drop_tombstones t;
  t.checkpoints <- t.checkpoints + 1

(* Compaction is checkpoint + WAL truncation viewed as space reclamation:
   harden the pending batch through the normal barrier, fold everything
   into a fresh snapshot, and report how many log bytes that retired. The
   slot fsync inside [checkpoint] is the commit point, so compaction is
   crash-safe by construction — a torn run leaves either the previous
   slot + full WAL or the new slot + stale WAL (whose replay is
   idempotent against snapshot-loaded state). *)
let compact t =
  let run () =
    ignore (barrier t);
    let wal_bytes () =
      match t.wal with Some w -> Wal.bytes_written w | None -> 0
    in
    let before = wal_bytes () in
    checkpoint t;
    max 0 (before - wal_bytes ())
  in
  match t.compaction_seconds with
  | Some h -> Demaq_obs.Metrics.time h run
  | None -> run ()

let compaction_due t ~max_wal_bytes =
  max_wal_bytes > 0
  && (match t.wal with
     | Some w -> Wal.bytes_written w >= max_wal_bytes
     | None -> false)

let set_compaction_fault t fault = t.compaction_fault <- fault

type stats = {
  live_messages : int;
  tombstones : int;
  wal_bytes : int;
  wal_records : int;
  wal_syncs : int;
  wal_group_syncs : int;
  checkpoints : int;
  spilled_payloads : int;
  inline_bytes : int;
}

let stats t =
  {
    live_messages = Rid_table.length t.messages;
    tombstones = t.tombstones;
    wal_bytes = wal_count Wal.bytes_written t;
    wal_records = wal_count Wal.records_written t;
    wal_syncs = wal_count Wal.syncs_performed t;
    wal_group_syncs = wal_count Wal.group_syncs_performed t;
    checkpoints = t.checkpoints;
    spilled_payloads = t.spilled;
    inline_bytes = t.inline_bytes;
  }

(* Register the store's metrics with an observability registry: WAL
   fsync-latency, batch-fill and compaction-time histograms (via the log's
   hooks and [compact]) plus callback counters/gauges over the counters
   the store already keeps. The clock hooks are only installed when the
   registry's timing path is enabled at instrumentation time — with
   metrics off the WAL keeps its zero-overhead fsync. *)
let instrument t reg =
  let module M = Demaq_obs.Metrics in
  if M.timing_on reg then
    t.compaction_seconds <-
      Some
        (M.histogram reg "demaq_store_compaction_seconds"
           ~help:"Wall-clock time of each store compaction");
  (match t.wal with
   | None -> ()
   | Some wal ->
     let on_fsync =
       if M.timing_on reg then begin
         let h =
           M.histogram reg "demaq_wal_fsync_seconds"
             ~help:"WAL fsync wall-clock latency"
         in
         Some (fun ns -> M.observe h ns)
       end
       else None
     in
     let batch =
       M.histogram reg "demaq_wal_batch_records" ~shift:(-1) ~scale:1.
         ~help:"Commit records covered by each group-commit fsync"
     in
     Wal.set_instruments wal
       ~clock_ns:(fun () -> M.now reg)
       ?on_fsync
       ~on_batch:(fun n -> M.observe batch n)
       ());
  (* each callback reads one counter: a scrape never walks the table *)
  let wal name help f =
    M.counter_fn reg name ~help (fun () -> float_of_int (wal_count f t))
  in
  wal "demaq_wal_bytes_total" "Bytes appended to the WAL" Wal.bytes_written;
  wal "demaq_wal_records_total" "Records appended to the WAL" Wal.records_written;
  wal "demaq_wal_syncs_total" "WAL fsyncs performed" Wal.syncs_performed;
  wal "demaq_wal_group_syncs_total" "Group-commit barriers that actually synced"
    Wal.group_syncs_performed;
  M.counter_fn reg "demaq_store_checkpoints_total" ~help:"Checkpoints written"
    (fun () -> float_of_int t.checkpoints);
  M.gauge_fn reg "demaq_store_live_messages" ~help:"Live messages in the store"
    (fun () -> float_of_int (Rid_table.length t.messages));
  M.gauge_fn reg "demaq_store_tombstones"
    ~help:"Messages deleted since the last checkpoint"
    (fun () -> float_of_int t.tombstones);
  M.gauge_fn reg "demaq_store_spilled_payloads"
    ~help:"Bodies stored out of line in the heap file"
    (fun () -> float_of_int t.spilled);
  M.gauge_fn reg "demaq_store_inline_bytes"
    ~help:"Memory held by the inline bodies of live messages"
    (fun () -> float_of_int t.inline_bytes);
  M.gauge_fn reg "demaq_wal_unsynced_commits"
    ~help:"Commits appended but not yet covered by a barrier"
    (fun () -> float_of_int (unsynced_commits t))
