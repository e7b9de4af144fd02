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
  mutable deleted : bool;
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
  messages : (int, message) Hashtbl.t;
  queues : (string, int Vec.t) Hashtbl.t;
  slice_lifetimes : (string * string, int) Hashtbl.t;
  lock_mgr : Lock_manager.t;
  mutable next_rid : int;
  mutable low_rid : int;
      (* no rid below it is in [messages]: lowered by inserts, raised past
         the dropped rids when tombstones are dropped *)
  mutable next_txn : int;
  mutable checkpoints : int;
  mutable last_logged_txn : int;  (* highest txn with a WAL commit record *)
  mutable durable_txn : int;  (* highest txn known synced to disk *)
  mutable wal_records_at_checkpoint : int;
      (* [Wal.records_written] as of the last checkpoint; -1 forces the
         first checkpoint after a recovery replay (the log must still be
         truncated even if this session wrote nothing new) *)
  mutable compaction_fault : (compaction_stage -> unit) option;
      (* crash-injection hook for the checkpoint/compaction commit points
         (tests raise from it to simulate a torn compaction) *)
}

and compaction_stage = Before_rename | After_rename

let payload t m =
  match m.stored with
  | Inline s -> s
  | Spilled (rid, _) -> (
    match t.heap with
    | Some heap -> Heap_file.read heap rid
    | None -> invalid_arg "Message_store.payload: spilled payload without a heap file")

let payload_length m =
  match m.stored with Inline s -> String.length s | Spilled (_, len) -> len

(* Spill policy: configured, and worth it. *)
let should_spill t s =
  match t.config.spill_threshold, t.heap with
  | Some threshold, Some _ -> String.length s > threshold
  | _ -> false

let store_payload t s =
  if should_spill t s then
    match t.heap with
    | Some heap -> Spilled (Heap_file.insert heap s, String.length s)
    | None -> Inline s
  else Inline s

let locks t = t.lock_mgr

let queue_vec t queue =
  match Hashtbl.find_opt t.queues queue with
  | Some v -> v
  | None ->
    let v = Vec.create ~dummy:(-1) in
    Hashtbl.replace t.queues queue v;
    v

(* ---- applying operations to the in-memory state ---- *)

let apply_insert t ~rid ~queue ~stored ~extra ~enqueued_at =
  let m = { rid; queue; stored; extra; enqueued_at; processed = false; deleted = false } in
  if rid < t.low_rid || Hashtbl.length t.messages = 0 then t.low_rid <- rid;
  Hashtbl.replace t.messages rid m;
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
    if Hashtbl.mem t.messages rid then
      (* a crash between the snapshot rename and the WAL truncation
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
    match Hashtbl.find_opt t.messages rid with
    | Some m -> m.processed <- true
    | None -> ())
  | Wal.Slice_reset { slicing; key; lifetime } ->
    Hashtbl.replace t.slice_lifetimes (slicing, key) lifetime
  | Wal.Delete { rid; _ } -> (
    match Hashtbl.find_opt t.messages rid with
    | Some m -> m.deleted <- true
    | None -> ())

(* ---- snapshots ---- *)

let snapshot_path dir = Filename.concat dir "snapshot.bin"
let wal_path dir = Filename.concat dir "wal.log"

let encode_snapshot t =
  let buf = Buffer.create 4096 in
  Codec.put_int buf t.next_rid;
  let live =
    Hashtbl.fold (fun _ m acc -> if m.deleted then acc else m :: acc) t.messages []
  in
  let live = List.sort (fun a b -> compare a.rid b.rid) live in
  Codec.put_list buf
    (fun buf m ->
      Codec.put_int buf m.rid;
      Codec.put_string buf m.queue;
      (* checkpoint is also when late (recovery-replayed) large bodies
         move out of line *)
      (match m.stored with
       | Inline s when should_spill t s ->
         (match t.heap with
          | Some heap ->
            m.stored <- Spilled (Heap_file.insert heap s, String.length s)
          | None -> ())
       | _ -> ());
      (match m.stored with
       | Inline s ->
         Codec.put_bool buf false;
         Codec.put_string buf s
       | Spilled (hrid, len) ->
         Codec.put_bool buf true;
         Codec.put_int buf hrid.Heap_file.page;
         Codec.put_int buf hrid.Heap_file.slot;
         Codec.put_int buf len);
      Codec.put_string buf m.extra;
      Codec.put_int buf m.enqueued_at;
      Codec.put_bool buf m.processed)
    live;
  let lifetimes =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.slice_lifetimes []
  in
  Codec.put_list buf
    (fun buf ((slicing, key), lifetime) ->
      Codec.put_string buf slicing;
      Codec.put_string buf key;
      Codec.put_int buf lifetime)
    lifetimes;
  Buffer.contents buf

let load_snapshot t path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let r = Codec.reader contents in
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
        m.processed <- processed)
    messages;
  let lifetimes =
    Codec.get_list r (fun r ->
        let slicing = Codec.get_string r in
        let key = Codec.get_string r in
        let lifetime = Codec.get_int r in
        ((slicing, key), lifetime))
  in
  List.iter (fun (k, v) -> Hashtbl.replace t.slice_lifetimes k v) lifetimes

(* ---- open / recovery ---- *)

(* Reclaim heap records no live message references (left behind when a
   crash separated the WAL from the heap file). *)
let sweep_heap_orphans t =
  match t.heap with
  | None -> ()
  | Some heap ->
    let referenced = Hashtbl.create 64 in
    Hashtbl.iter
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
      messages = Hashtbl.create 1024;
      queues = Hashtbl.create 16;
      slice_lifetimes = Hashtbl.create 64;
      lock_mgr = Lock_manager.create ();
      next_rid = 1;
      low_rid = 1;
      next_txn = 1;
      checkpoints = 0;
      last_logged_txn = 0;
      durable_txn = 0;
      wal_records_at_checkpoint = 0;
      compaction_fault = None;
    }
  in
  match config.dir with
  | None -> t
  | Some dir ->
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    (* a crash mid-compaction can strand the half-written temporary
       snapshot; it was never renamed, so it is dead weight — the real
       snapshot + WAL still hold the authoritative state *)
    (let tmp = snapshot_path dir ^ ".tmp" in
     if Sys.file_exists tmp then Sys.remove tmp);
    if Sys.file_exists (snapshot_path dir) then load_snapshot t (snapshot_path dir);
    let valid =
      Wal.replay (wal_path dir) (function
        | Wal.Commit { ops; _ } -> List.iter (apply_op t) ops
        | Wal.Checkpoint -> ())
    in
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
  mutable finished : bool;
}

let begin_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  { id; store = t; ops = []; undo = []; finished = false }

let txn_id txn = txn.id

let check_active txn =
  if txn.finished then invalid_arg "transaction already finished"

let insert txn ~queue ~payload ~extra ~enqueued_at ~durable =
  check_active txn;
  let t = txn.store in
  let rid = t.next_rid in
  let stored = store_payload t payload in
  ignore (apply_insert t ~rid ~queue ~stored ~extra ~enqueued_at);
  if durable then
    txn.ops <- Wal.Insert { rid; queue; payload; extra; enqueued_at } :: txn.ops;
  txn.undo <-
    (fun () ->
      (match stored, t.heap with
       | Spilled (hrid, _), Some heap -> Heap_file.free heap hrid
       | _ -> ());
      Hashtbl.remove t.messages rid;
      Vec.filter_in_place (fun r -> r <> rid) (queue_vec t queue))
    :: txn.undo;
  rid

let mark_processed txn rid =
  check_active txn;
  match Hashtbl.find_opt txn.store.messages rid with
  | None -> ()
  | Some m ->
    if not m.processed then begin
      m.processed <- true;
      txn.ops <- Wal.Mark_processed { rid } :: txn.ops;
      txn.undo <- (fun () -> m.processed <- false) :: txn.undo
    end

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
  match Hashtbl.find_opt t.messages rid with
  | None -> ()
  | Some m ->
    if not m.deleted then begin
      m.deleted <- true;
      if t.config.log_deletions then
        (* emulate update-in-place logging: the before-image rides along *)
        txn.ops <- Wal.Delete { rid; image = payload t m } :: txn.ops;
      txn.undo <- (fun () -> m.deleted <- false) :: txn.undo
    end

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
  Lock_manager.release_all t.lock_mgr ~txn:txn.id

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

(* cheap accessor for the adaptive controller's per-tick sampling: [stats]
   folds the whole message table, which a control loop must not pay for *)
let wal_group_syncs t =
  match t.wal with Some wal -> Wal.group_syncs_performed wal | None -> 0

let abort txn =
  check_active txn;
  txn.finished <- true;
  List.iter (fun undo -> undo ()) txn.undo;
  Lock_manager.release_all txn.store.lock_mgr ~txn:txn.id

(* ---- reads ---- *)

let get t rid =
  match Hashtbl.find_opt t.messages rid with
  | Some m when not m.deleted -> Some m
  | _ -> None

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

let fold_messages t f init =
  Hashtbl.fold (fun _ m acc -> if m.deleted then acc else f acc m) t.messages init

let all_messages t =
  List.sort (fun a b -> compare a.rid b.rid) (fold_messages t (fun acc m -> m :: acc) [])

let slice_lifetime t ~slicing ~key =
  Option.value ~default:0 (Hashtbl.find_opt t.slice_lifetimes (slicing, key))

let unprocessed t =
  List.filter (fun m -> not m.processed) (all_messages t)

(* ---- maintenance ---- *)

(* One pass over the table and one filter per affected queue vector, so a
   compaction costs O(store), not O(tombstones x queue length). *)
let drop_tombstones t =
  let doomed = Hashtbl.create 64 in
  Hashtbl.iter (fun rid m -> if m.deleted then Hashtbl.replace doomed rid m) t.messages;
  if Hashtbl.length doomed > 0 then begin
    let queues = Hashtbl.create 8 in
    Hashtbl.iter
      (fun rid m ->
        (match m.stored, t.heap with
         | Spilled (hrid, _), Some heap -> Heap_file.free heap hrid
         | _ -> ());
        Hashtbl.remove t.messages rid;
        Hashtbl.replace queues m.queue ())
      doomed;
    Hashtbl.iter
      (fun queue () ->
        Vec.filter_in_place (fun r -> not (Hashtbl.mem doomed r)) (queue_vec t queue))
      queues;
    while t.low_rid < t.next_rid && not (Hashtbl.mem t.messages t.low_rid) do
      t.low_rid <- t.low_rid + 1
    done
  end

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
       (* the snapshot references heap rids: the heap must be durable first *)
       Option.iter Heap_file.flush_pages t.heap;
       let tmp = snapshot_path dir ^ ".tmp" in
       let oc = open_out_bin tmp in
       output_string oc (encode_snapshot t);
       flush oc;
       Unix.fsync (Unix.descr_of_out_channel oc);
       close_out oc;
       (* the rename is the commit point of the compaction: before it the
          old snapshot + full WAL are authoritative, after it the new
          snapshot is — either way a crash loses nothing. The fault hook
          lets tests crash on both sides of the point. *)
       (match t.compaction_fault with Some f -> f Before_rename | None -> ());
       Sys.rename tmp (snapshot_path dir);
       (match t.compaction_fault with Some f -> f After_rename | None -> ());
       Option.iter Wal.reset t.wal;
       t.wal_records_at_checkpoint <- wal_records;
       (* everything logged so far now lives in the fsynced snapshot *)
       t.durable_txn <- t.last_logged_txn
     end);
  drop_tombstones t;
  t.checkpoints <- t.checkpoints + 1

(* Compaction is checkpoint + WAL truncation viewed as space reclamation:
   harden the pending batch through the normal barrier, fold everything
   into a fresh snapshot, and report how many log bytes that retired. The
   rename inside [checkpoint] is the commit point, so compaction is
   crash-safe by construction — a torn run leaves either the old
   snapshot + full WAL or the new snapshot + stale WAL (whose replay is
   idempotent against snapshot-loaded state). *)
let compact t =
  ignore (barrier t);
  let wal_bytes () =
    match t.wal with Some w -> Wal.bytes_written w | None -> 0
  in
  let before = wal_bytes () in
  checkpoint t;
  max 0 (before - wal_bytes ())

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
  let live, dead =
    Hashtbl.fold
      (fun _ m (live, dead) -> if m.deleted then (live, dead + 1) else (live + 1, dead))
      t.messages (0, 0)
  in
  let spilled, inline_bytes =
    Hashtbl.fold
      (fun _ m (spilled, bytes) ->
        match m.stored with
        | Spilled _ -> (spilled + 1, bytes)
        | Inline s -> (spilled, bytes + String.length s))
      t.messages (0, 0)
  in
  {
    live_messages = live;
    tombstones = dead;
    wal_bytes = (match t.wal with Some w -> Wal.bytes_written w | None -> 0);
    wal_records = (match t.wal with Some w -> Wal.records_written w | None -> 0);
    wal_syncs = (match t.wal with Some w -> Wal.syncs_performed w | None -> 0);
    wal_group_syncs =
      (match t.wal with Some w -> Wal.group_syncs_performed w | None -> 0);
    checkpoints = t.checkpoints;
    spilled_payloads = spilled;
    inline_bytes;
  }

(* Register the store's metrics with an observability registry: WAL
   fsync-latency and batch-fill histograms (via the log's hooks) plus
   callback counters/gauges over the counters the store already keeps.
   The fsync clock hook is only installed when the registry's timing path
   is enabled at instrumentation time — with metrics off the WAL keeps
   its zero-overhead fsync. *)
let instrument t reg =
  let module M = Demaq_obs.Metrics in
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
  let s () = stats t in
  M.counter_fn reg "demaq_wal_bytes_total" ~help:"Bytes appended to the WAL"
    (fun () -> float_of_int (s ()).wal_bytes);
  M.counter_fn reg "demaq_wal_records_total" ~help:"Records appended to the WAL"
    (fun () -> float_of_int (s ()).wal_records);
  M.counter_fn reg "demaq_wal_syncs_total" ~help:"WAL fsyncs performed"
    (fun () -> float_of_int (s ()).wal_syncs);
  M.counter_fn reg "demaq_wal_group_syncs_total"
    ~help:"Group-commit barriers that actually synced"
    (fun () -> float_of_int (s ()).wal_group_syncs);
  M.counter_fn reg "demaq_store_checkpoints_total" ~help:"Checkpoints written"
    (fun () -> float_of_int (s ()).checkpoints);
  M.gauge_fn reg "demaq_store_live_messages" ~help:"Live messages in the store"
    (fun () -> float_of_int (s ()).live_messages);
  M.gauge_fn reg "demaq_store_tombstones" ~help:"Messages awaiting checkpoint drop"
    (fun () -> float_of_int (s ()).tombstones);
  M.gauge_fn reg "demaq_store_spilled_payloads"
    ~help:"Bodies stored out of line in the heap file"
    (fun () -> float_of_int (s ()).spilled_payloads);
  M.gauge_fn reg "demaq_store_inline_bytes" ~help:"Memory held by inline bodies"
    (fun () -> float_of_int (s ()).inline_bytes);
  M.gauge_fn reg "demaq_wal_unsynced_commits"
    ~help:"Commits appended but not yet covered by a barrier"
    (fun () -> float_of_int (unsynced_commits t))
