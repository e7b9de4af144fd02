(* Tests for lib/store: codec, CRC, WAL, transactions, recovery, checkpoints. *)

module Codec = Demaq.Store.Codec
module Crc32 = Demaq.Store.Crc32
module Wal = Demaq.Store.Wal
module Vec = Demaq.Store.Vec
module Store = Demaq.Store.Message_store

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

(* ---- vec ---- *)

let test_vec () =
  let v = Vec.create ~dummy:0 in
  for i = 1 to 100 do Vec.push v i done;
  check int_ "length" 100 (Vec.length v);
  check int_ "get" 42 (Vec.get v 41);
  check int_ "fold" 5050 (Vec.fold ( + ) 0 v);
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  check int_ "filtered" 50 (Vec.length v);
  check bool_ "to_list ordered" true
    (Vec.to_list v = List.init 50 (fun i -> 2 * (i + 1)))

(* ---- crc ---- *)

let test_crc32 () =
  (* Known value: CRC32("123456789") = 0xCBF43926 *)
  check int_ "standard check value" 0xCBF43926 (Crc32.string "123456789");
  check bool_ "differs on change" true (Crc32.string "a" <> Crc32.string "b")

(* ---- codec ---- *)

let test_codec_roundtrip () =
  let w = Codec.Writer.create 64 in
  Codec.Writer.int w (-42);
  Codec.Writer.string w "hello \x00 world";
  Codec.Writer.bool w true;
  Codec.Writer.list w Codec.Writer.int [ 1; 2; 3 ];
  let r = Codec.reader (Codec.Writer.contents w) in
  check int_ "int" (-42) (Codec.get_int r);
  check string_ "string with NUL" "hello \x00 world" (Codec.get_string r);
  check bool_ "bool" true (Codec.get_bool r);
  check bool_ "list" true (Codec.get_list r Codec.get_int = [ 1; 2; 3 ]);
  check bool_ "at end" true (Codec.at_end r)

let test_codec_truncation () =
  let r = Codec.reader "\x01\x02" in
  match Codec.get_int r with
  | _ -> Alcotest.fail "expected decode error"
  | exception Codec.Decode_error _ -> ()

(* ---- wal ---- *)

let sample_ops =
  [
    Wal.Insert { rid = 1; queue = "q"; payload = "<m/>"; extra = "x"; enqueued_at = 5 };
    Wal.Mark_processed { rid = 1 };
    Wal.Slice_reset { slicing = "s"; key = "k"; lifetime = 2 };
    Wal.Delete { rid = 1; image = "<m/>" };
  ]

let test_wal_roundtrip () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let wal = Wal.open_log ~sync:Wal.Sync_never path in
  Wal.append wal (Wal.Commit { txn = 7; ops = sample_ops });
  Wal.append wal Wal.Checkpoint;
  Wal.close wal;
  let records = ref [] in
  ignore (Wal.replay path (fun r -> records := r :: !records));
  match List.rev !records with
  | [ Wal.Commit { txn = 7; ops }; Wal.Checkpoint ] ->
    check bool_ "ops roundtrip" true (ops = sample_ops)
  | _ -> Alcotest.fail "unexpected replay"

let test_wal_torn_tail () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let wal = Wal.open_log ~sync:Wal.Sync_never path in
  Wal.append wal (Wal.Commit { txn = 1; ops = sample_ops });
  Wal.append wal (Wal.Commit { txn = 2; ops = sample_ops });
  Wal.close wal;
  (* Truncate mid-record: only the first commit must replay. *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (size - 7);
  Unix.close fd;
  let n = ref 0 in
  ignore (Wal.replay path (fun _ -> incr n));
  check int_ "only intact record" 1 !n

let test_wal_corruption () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let wal = Wal.open_log ~sync:Wal.Sync_never path in
  Wal.append wal (Wal.Commit { txn = 1; ops = sample_ops });
  Wal.close wal;
  (* Flip a byte in the body: CRC must reject the record. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 20 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xFF") 0 1);
  Unix.close fd;
  let n = ref 0 in
  ignore (Wal.replay path (fun _ -> incr n));
  check int_ "corrupt record dropped" 0 !n

let test_wal_reset () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let wal = Wal.open_log ~sync:Wal.Sync_never path in
  Wal.append wal (Wal.Commit { txn = 1; ops = sample_ops });
  Wal.reset wal;
  Wal.append wal (Wal.Commit { txn = 2; ops = [] });
  Wal.close wal;
  let txns = ref [] in
  ignore
    (Wal.replay path (function
      | Wal.Commit { txn; _ } -> txns := txn :: !txns
      | Wal.Checkpoint -> ()));
  check bool_ "only post-reset" true (!txns = [ 2 ])

(* ---- message store: in-memory transactions ---- *)

let mem_store () = Store.open_store Store.default_config

let insert_msg txn queue payload =
  Store.insert txn ~queue ~payload ~extra:"" ~enqueued_at:1 ~durable:true

let test_store_basic () =
  let st = mem_store () in
  let txn = Store.begin_txn st in
  let r1 = insert_msg txn "q" "<a/>" in
  let r2 = insert_msg txn "q" "<b/>" in
  Store.commit txn;
  check bool_ "rids increase" true (r2 > r1);
  check int_ "queue length" 2 (Store.queue_length st "q");
  check bool_ "order" true (Store.queue_rids st "q" = [ r1; r2 ]);
  let m = Option.get (Store.get st r1) in
  check string_ "payload" "<a/>" (Store.payload st m);
  check bool_ "unprocessed" true (not m.Store.processed);
  check int_ "two unprocessed" 2 (List.length (Store.unprocessed st))

let test_store_abort () =
  let st = mem_store () in
  let txn = Store.begin_txn st in
  let r = insert_msg txn "q" "<a/>" in
  Store.abort txn;
  check bool_ "insert undone" true (Store.get st r = None);
  check int_ "queue empty" 0 (Store.queue_length st "q");
  (* processed flag rollback *)
  let txn = Store.begin_txn st in
  let r = insert_msg txn "q" "<a/>" in
  Store.commit txn;
  let txn = Store.begin_txn st in
  Store.mark_processed txn r;
  check bool_ "marked inside txn" true (Option.get (Store.get st r)).Store.processed;
  Store.abort txn;
  check bool_ "unmarked after abort" true
    (not (Option.get (Store.get st r)).Store.processed)

let test_store_slice_lifetimes () =
  let st = mem_store () in
  check int_ "initial lifetime" 0 (Store.slice_lifetime st ~slicing:"s" ~key:"k");
  let txn = Store.begin_txn st in
  Store.slice_reset txn ~slicing:"s" ~key:"k";
  Store.commit txn;
  check int_ "incremented" 1 (Store.slice_lifetime st ~slicing:"s" ~key:"k");
  let txn = Store.begin_txn st in
  Store.slice_reset txn ~slicing:"s" ~key:"k";
  Store.abort txn;
  check int_ "abort rolls back" 1 (Store.slice_lifetime st ~slicing:"s" ~key:"k")

let test_store_delete_tombstone () =
  let st = mem_store () in
  let txn = Store.begin_txn st in
  let r = insert_msg txn "q" "<a/>" in
  Store.commit txn;
  let txn = Store.begin_txn st in
  Store.delete txn r;
  Store.commit txn;
  check bool_ "invisible" true (Store.get st r = None);
  check int_ "not in queue" 0 (Store.queue_length st "q");
  check int_ "tombstone counted" 1 (Store.stats st).Store.tombstones;
  Store.checkpoint st;
  check int_ "dropped at checkpoint" 0 (Store.stats st).Store.tombstones

let test_store_finished_txn () =
  let st = mem_store () in
  let txn = Store.begin_txn st in
  Store.commit txn;
  match insert_msg txn "q" "<a/>" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---- durability and recovery ---- *)

let test_recovery () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r1 = insert_msg txn "q" "<a/>" in
  let _r2 = insert_msg txn "other" "<b/>" in
  Store.slice_reset txn ~slicing:"s" ~key:"k";
  Store.commit txn;
  let txn = Store.begin_txn st in
  Store.mark_processed txn r1;
  Store.commit txn;
  Store.close st;
  (* Re-open: everything committed must be back. *)
  let st2 = Store.open_store cfg in
  check int_ "q recovered" 1 (Store.queue_length st2 "q");
  check int_ "other recovered" 1 (Store.queue_length st2 "other");
  check bool_ "processed flag recovered" true
    (Option.get (Store.get st2 r1)).Store.processed;
  check int_ "slice lifetime recovered" 1
    (Store.slice_lifetime st2 ~slicing:"s" ~key:"k");
  (* rid allocation continues past recovered ones *)
  let txn = Store.begin_txn st2 in
  let r3 = insert_msg txn "q" "<c/>" in
  Store.commit txn;
  check bool_ "fresh rid" true (r3 > r1);
  Store.close st2

let test_recovery_uncommitted_invisible () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (insert_msg txn "q" "<a/>");
  Store.commit txn;
  let txn2 = Store.begin_txn st in
  ignore (insert_msg txn2 "q" "<b/>");
  (* no commit: simulate crash by reopening without closing the txn *)
  Store.close st;
  let st2 = Store.open_store cfg in
  check int_ "only committed" 1 (Store.queue_length st2 "q");
  Store.close st2

let test_recovery_transient_skipped () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (Store.insert txn ~queue:"t" ~payload:"<x/>" ~extra:"" ~enqueued_at:1 ~durable:false);
  ignore (insert_msg txn "q" "<a/>");
  Store.commit txn;
  check int_ "transient visible live" 1 (Store.queue_length st "t");
  Store.close st;
  let st2 = Store.open_store cfg in
  check int_ "transient gone after restart" 0 (Store.queue_length st2 "t");
  check int_ "durable kept" 1 (Store.queue_length st2 "q");
  Store.close st2

let test_checkpoint_and_log_truncation () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  for i = 1 to 20 do
    let txn = Store.begin_txn st in
    ignore (insert_msg txn "q" (Printf.sprintf "<m n='%d'/>" i));
    Store.commit txn
  done;
  let before = (Store.stats st).Store.wal_bytes in
  Store.checkpoint st;
  let after = (Store.stats st).Store.wal_bytes in
  check bool_ "log truncated" true (after < before);
  Store.close st;
  let st2 = Store.open_store cfg in
  check int_ "snapshot loads all" 20 (Store.queue_length st2 "q");
  (* and the combination snapshot + new log entries works *)
  let txn = Store.begin_txn st2 in
  ignore (insert_msg txn "q" "<extra/>");
  Store.commit txn;
  Store.close st2;
  let st3 = Store.open_store cfg in
  check int_ "snapshot + tail" 21 (Store.queue_length st3 "q");
  Store.close st3

let test_deletions_unlogged_by_default () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r = insert_msg txn "q" "<a/>" in
  Store.commit txn;
  let before = (Store.stats st).Store.wal_bytes in
  let txn = Store.begin_txn st in
  Store.delete txn r;
  Store.commit txn;
  let after = (Store.stats st).Store.wal_bytes in
  (* §4.1: deletes are not logged; re-derived after recovery *)
  check int_ "no delete bytes" before after;
  Store.close st;
  (* after restart the message is back (tombstone was volatile) — the
     retention GC re-deletes it from derived state *)
  let st2 = Store.open_store cfg in
  check int_ "delete not replayed" 1 (Store.queue_length st2 "q");
  Store.close st2

let test_deletions_logged_when_configured () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~log_deletions:true dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r = insert_msg txn "q" "<a/>" in
  Store.commit txn;
  let txn = Store.begin_txn st in
  Store.delete txn r;
  Store.commit txn;
  Store.close st;
  let st2 = Store.open_store cfg in
  check int_ "delete replayed" 0 (Store.queue_length st2 "q");
  Store.close st2

let test_sync_modes () =
  let dir = fresh_dir () in
  let st = Store.open_store (Store.durable_config ~sync:Wal.Sync_always dir) in
  let txn = Store.begin_txn st in
  ignore (insert_msg txn "q" "<a/>");
  Store.commit txn;
  check bool_ "fsync counted" true ((Store.stats st).Store.wal_syncs >= 1);
  check int_ "Sync_always leaves nothing pending" 0 (Store.unsynced_commits st);
  check bool_ "barrier is a no-op outside Sync_batch" false (Store.barrier st);
  Store.close st

let test_sync_batch_auto_barrier () =
  (* The record-count trigger: every [max_records]th commit fires an
     automatic barrier; the rest stay pending until an explicit one. *)
  let dir = fresh_dir () in
  let cfg =
    Store.durable_config ~sync:(Wal.Sync_batch { max_records = 4; max_bytes = 0 }) dir
  in
  let st = Store.open_store cfg in
  for i = 1 to 10 do
    let txn = Store.begin_txn st in
    ignore (insert_msg txn "q" (Printf.sprintf "<m n='%d'/>" i));
    Store.commit txn
  done;
  let stats = Store.stats st in
  check int_ "auto-barrier fired at 4 and 8" 2 stats.Store.wal_group_syncs;
  check int_ "two commits still exposed" 2 (Store.unsynced_commits st);
  check bool_ "explicit barrier syncs the tail" true (Store.barrier st);
  check int_ "nothing exposed after the barrier" 0 (Store.unsynced_commits st);
  check bool_ "watermark covers every commit" true (Store.durable_upto st > 0);
  check bool_ "second barrier has nothing to do" false (Store.barrier st);
  Store.close st;
  let st2 = Store.open_store cfg in
  check int_ "all ten survive the restart" 10 (Store.queue_length st2 "q");
  Store.close st2

let test_sync_batch_byte_trigger () =
  let dir = fresh_dir () in
  let cfg =
    Store.durable_config ~sync:(Wal.Sync_batch { max_records = 0; max_bytes = 64 }) dir
  in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (insert_msg txn "q" ("<m>" ^ String.make 100 'x' ^ "</m>"));
  Store.commit txn;
  (* one record already exceeds 64 pending bytes: synced immediately *)
  check int_ "byte threshold fired the barrier" 0 (Store.unsynced_commits st);
  check bool_ "counted as a group sync" true
    ((Store.stats st).Store.wal_group_syncs >= 1);
  Store.close st

(* The bytes of both snapshot slots ("" for a slot not yet written). *)
let slot_images dir =
  List.map
    (fun f ->
      let path = Filename.concat dir f in
      if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
      else "")
    [ "snapshot.0"; "snapshot.1" ]

let test_checkpoint_skip_when_clean () =
  (* A checkpoint with no WAL records and no dirty pages since the last one
     must not rewrite (or fsync) the snapshot; with new work it must. *)
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (insert_msg txn "q" "<a/>");
  Store.commit txn;
  Store.checkpoint st;
  let images = slot_images dir in
  Store.checkpoint st;
  check (Alcotest.list string_) "clean checkpoint skipped the snapshot write" images
    (slot_images dir);
  check int_ "but was still counted" 2 (Store.stats st).Store.checkpoints;
  let txn = Store.begin_txn st in
  ignore (insert_msg txn "q" "<b/>");
  Store.commit txn;
  Store.checkpoint st;
  check int_ "new work forces a fresh snapshot into one slot" 1
    (List.length (List.filter Fun.id (List.map2 ( <> ) images (slot_images dir))));
  Store.close st;
  (* a recovered non-empty log must be truncated by the next checkpoint
     even when this session wrote nothing new *)
  let txn_log = Store.open_store cfg in
  let txn = Store.begin_txn txn_log in
  ignore (insert_msg txn "q" "<c/>");
  Store.commit txn;
  Store.close txn_log;
  let st2 = Store.open_store cfg in
  check bool_ "log non-empty after recovery" true ((Store.stats st2).Store.wal_bytes > 0);
  Store.checkpoint st2;
  check int_ "checkpoint truncated the recovered log" 0
    (Store.stats st2).Store.wal_bytes;
  Store.close st2;
  let st3 = Store.open_store cfg in
  check int_ "snapshot alone restores everything" 3 (Store.queue_length st3 "q");
  Store.close st3

let ino path = (Unix.stat path).Unix.st_ino

let test_compaction_replaces_no_file () =
  (* Compaction overwrites its snapshot slots and truncates the log in
     place: across many compactions with traffic in between, no file of
     the store gets a new inode, and a reopen sees every live message. *)
  let dir = fresh_dir () in
  let cfg =
    Store.durable_config ~sync:(Wal.Sync_batch { max_records = 8; max_bytes = 0 }) dir
  in
  let st = Store.open_store cfg in
  let files = [ "snapshot.0"; "snapshot.1"; "wal.log" ] in
  let seen = Hashtbl.create 3 in
  let live = ref [] in
  for round = 1 to 10 do
    for i = 1 to 5 do
      let txn = Store.begin_txn st in
      live := insert_msg txn "q" (Printf.sprintf "<m r='%d' i='%d'/>" round i) :: !live;
      (* retention retires some of the traffic between compactions *)
      (match !live with
       | _ :: _ :: old :: _ when i = 5 ->
         Store.delete txn old;
         live := List.filter (( <> ) old) !live
       | _ -> ());
      Store.commit txn
    done;
    check bool_ (Printf.sprintf "compaction %d retired log bytes" round) true
      (Store.compact st > 0);
    List.iter
      (fun f ->
        let path = Filename.concat dir f in
        if Sys.file_exists path then
          match Hashtbl.find_opt seen f with
          | None -> Hashtbl.replace seen f (ino path)
          | Some first ->
            check int_ (Printf.sprintf "compaction %d: %s kept its inode" round f)
              first (ino path))
      files
  done;
  List.iter
    (fun f -> check bool_ (f ^ " exists") true (Hashtbl.mem seen f))
    files;
  Store.close st;
  let st2 = Store.open_store cfg in
  check (Alcotest.list int_) "reopen sees every live message"
    (List.sort compare !live) (Store.queue_rids st2 "q");
  Store.close st2

let test_legacy_snapshot_upgrade () =
  (* A directory left by the single-file snapshot format: snapshot.bin is
     a bare snapshot body, wal.log the log since it. It opens with every
     message, and its first compaction commits a slot and removes the
     legacy file. *)
  let dir = fresh_dir () in
  let w = Codec.Writer.create 256 in
  Codec.Writer.int w 3 (* next rid *);
  Codec.Writer.list w
    (fun w (rid, payload, processed) ->
      Codec.Writer.int w rid;
      Codec.Writer.string w "q";
      Codec.Writer.bool w false (* inline *);
      Codec.Writer.string w payload;
      Codec.Writer.string w "";
      Codec.Writer.int w 1;
      Codec.Writer.bool w processed)
    [ (1, "<old n='1'/>", true); (2, "<old n='2'/>", false) ];
  Codec.Writer.list w
    (fun w (slicing, key, lifetime) ->
      Codec.Writer.string w slicing;
      Codec.Writer.string w key;
      Codec.Writer.int w lifetime)
    [ ("s", "k", 4) ];
  let legacy = Filename.concat dir "snapshot.bin" in
  Out_channel.with_open_bin legacy (fun oc ->
      Out_channel.output_string oc (Codec.Writer.contents w));
  let wal = Wal.open_log (Filename.concat dir "wal.log") in
  Wal.append wal
    (Wal.Commit
       {
         txn = 1;
         ops =
           [
             Wal.Insert
               { rid = 3; queue = "q"; payload = "<new/>"; extra = ""; enqueued_at = 2 };
             Wal.Mark_processed { rid = 2 };
           ];
       });
  Wal.close wal;
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let expect st tag =
    check (Alcotest.list int_) (tag ^ ": every message") [ 1; 2; 3 ]
      (Store.queue_rids st "q");
    check (Alcotest.list int_) (tag ^ ": processed flags") [ 3 ]
      (List.map (fun m -> m.Store.rid) (Store.unprocessed st));
    check int_ (tag ^ ": slice lifetime") 4 (Store.slice_lifetime st ~slicing:"s" ~key:"k");
    check string_ (tag ^ ": payload") "<new/>"
      (Store.payload st (Option.get (Store.get st 3)))
  in
  let st = Store.open_store cfg in
  expect st "legacy open";
  ignore (Store.compact st);
  check bool_ "first committed slot removed snapshot.bin" false (Sys.file_exists legacy);
  check bool_ "the slot exists" true
    (Sys.file_exists (Filename.concat dir "snapshot.1"));
  let txn = Store.begin_txn st in
  let r = insert_msg txn "q" "<after/>" in
  Store.commit txn;
  check int_ "rid high-water mark carried over" 4 r;
  Store.close st;
  let st2 = Store.open_store cfg in
  check (Alcotest.list int_) "reopen: every message" [ 1; 2; 3; 4 ]
    (Store.queue_rids st2 "q");
  Store.close st2

(* qcheck: the store agrees with a trivial model under random op sequences *)

type model_op =
  | M_insert of string
  | M_process of int  (* index into inserted list *)
  | M_delete of int
  | M_abort_insert of string

let gen_ops =
  QCheck.Gen.(
    small_list
      (frequency
         [
           (4, map (fun q -> M_insert q) (oneofl [ "a"; "b" ]));
           (2, map (fun i -> M_process i) (int_bound 20));
           (1, map (fun i -> M_delete i) (int_bound 20));
           (1, map (fun q -> M_abort_insert q) (oneofl [ "a"; "b" ]));
         ]))

let prop_store_model =
  QCheck.Test.make ~name:"store matches list model" ~count:100 ~long_factor:60
    (QCheck.make gen_ops)
    (fun ops ->
      let st = mem_store () in
      (* model: (rid, queue, processed, deleted) list *)
      let model = ref [] in
      List.iter
        (fun op ->
          let txn = Store.begin_txn st in
          (match op with
           | M_insert q ->
             let rid = insert_msg txn q "<m/>" in
             model := !model @ [ (rid, q, ref false, ref false) ]
           | M_abort_insert q ->
             ignore (insert_msg txn q "<m/>");
             Store.abort txn
           | M_process i -> (
             match List.nth_opt !model i with
             | Some (rid, _, p, _) ->
               Store.mark_processed txn rid;
               p := true
             | None -> ())
           | M_delete i -> (
             match List.nth_opt !model i with
             | Some (rid, _, _, d) ->
               Store.delete txn rid;
               d := true
             | None -> ()));
          (match op with M_abort_insert _ -> () | _ -> Store.commit txn))
        ops;
      List.for_all
        (fun q ->
          let expected =
            List.filter_map
              (fun (rid, q', _, d) -> if q' = q && not !d then Some rid else None)
              !model
          in
          Store.queue_rids st q = expected)
        [ "a"; "b" ]
      && List.for_all
           (fun (rid, _, p, d) ->
             match Store.get st rid with
             | None -> !d
             | Some m -> (not !d) && m.Store.processed = !p)
           !model)

let suite =
  [
    ("vec", `Quick, test_vec);
    ("crc32 known value", `Quick, test_crc32);
    ("codec roundtrip", `Quick, test_codec_roundtrip);
    ("codec truncation", `Quick, test_codec_truncation);
    ("wal roundtrip", `Quick, test_wal_roundtrip);
    ("wal torn tail ignored", `Quick, test_wal_torn_tail);
    ("wal corruption detected", `Quick, test_wal_corruption);
    ("wal reset", `Quick, test_wal_reset);
    ("store basics", `Quick, test_store_basic);
    ("txn abort undoes", `Quick, test_store_abort);
    ("slice lifetimes", `Quick, test_store_slice_lifetimes);
    ("delete tombstones", `Quick, test_store_delete_tombstone);
    ("finished txn rejected", `Quick, test_store_finished_txn);
    ("recovery", `Quick, test_recovery);
    ("recovery: uncommitted invisible", `Quick, test_recovery_uncommitted_invisible);
    ("recovery: transient skipped", `Quick, test_recovery_transient_skipped);
    ("checkpoint truncates log", `Quick, test_checkpoint_and_log_truncation);
    ("deletions unlogged by default", `Quick, test_deletions_unlogged_by_default);
    ("deletions logged when configured", `Quick, test_deletions_logged_when_configured);
    ("sync modes", `Quick, test_sync_modes);
    ("sync batch: auto barrier on record count", `Quick, test_sync_batch_auto_barrier);
    ("sync batch: auto barrier on byte size", `Quick, test_sync_batch_byte_trigger);
    ("checkpoint skipped when clean", `Quick, test_checkpoint_skip_when_clean);
    QCheck_alcotest.to_alcotest prop_store_model;
    ("compaction replaces no file", `Quick, test_compaction_replaces_no_file);
    ("legacy snapshot.bin upgrades to slots", `Quick, test_legacy_snapshot_upgrade);
  ]

(* ---- large-payload spill (heap file integration) ---- *)

let big_payload n seed = Printf.sprintf "<blob n='%d'>%s</blob>" seed (String.make n 'B')

let test_spill_roundtrip () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let small = insert_msg txn "q" "<small/>" in
  let rid = Store.insert txn ~queue:"q" ~payload:(big_payload 5000 1) ~extra:""
      ~enqueued_at:1 ~durable:true in
  Store.commit txn;
  let m = Option.get (Store.get st rid) in
  check bool_ "spilled out of line" true
    (match m.Store.stored with Store.Spilled _ -> true | Store.Inline _ -> false);
  check int_ "length tracked" (String.length (big_payload 5000 1)) (Store.payload_length m);
  check string_ "read back through pool" (big_payload 5000 1) (Store.payload st m);
  let sm = Option.get (Store.get st small) in
  check bool_ "small stays inline" true
    (match sm.Store.stored with Store.Inline _ -> true | Store.Spilled _ -> false);
  check int_ "stats count spill" 1 (Store.stats st).Store.spilled_payloads;
  Store.close st

let test_spill_survives_checkpoint_and_restart () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r1 = Store.insert txn ~queue:"q" ~payload:(big_payload 9000 7) ~extra:""
      ~enqueued_at:1 ~durable:true in
  Store.commit txn;
  Store.checkpoint st;
  Store.close st;
  (* reopen from snapshot: the body must still resolve through the heap *)
  let st2 = Store.open_store cfg in
  let m = Option.get (Store.get st2 r1) in
  check string_ "spilled body after snapshot restart" (big_payload 9000 7)
    (Store.payload st2 m);
  check bool_ "still out of line" true
    (match m.Store.stored with Store.Spilled _ -> true | _ -> false);
  Store.close st2

let test_spill_recovery_from_wal_only () =
  (* crash before any checkpoint: the WAL holds the full payload; recovery
     keeps it inline, the next checkpoint re-spills, orphan records from
     before the crash are swept *)
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r1 = Store.insert txn ~queue:"q" ~payload:(big_payload 4000 3) ~extra:""
      ~enqueued_at:1 ~durable:true in
  Store.commit txn;
  Store.close st;
  let st2 = Store.open_store cfg in
  let m = Option.get (Store.get st2 r1) in
  check string_ "recovered body" (big_payload 4000 3) (Store.payload st2 m);
  Store.checkpoint st2;
  let m = Option.get (Store.get st2 r1) in
  check bool_ "re-spilled at checkpoint" true
    (match m.Store.stored with Store.Spilled _ -> true | _ -> false);
  check string_ "body after re-spill" (big_payload 4000 3) (Store.payload st2 m);
  Store.close st2

let test_spill_durable_before_snapshot () =
  (* a body that recovery kept inline is spilled while the checkpoint
     encodes the snapshot; the heap page must reach the file before the
     snapshot commits, or a crash right after the compaction (the log
     already truncated) leaves the snapshot pointing at a page the heap
     file never got *)
  let dir = fresh_dir () in
  let st = Store.open_store (Store.durable_config ~sync:Wal.Sync_never dir) in
  let txn = Store.begin_txn st in
  let r1 = Store.insert txn ~queue:"q" ~payload:(big_payload 4000 5) ~extra:""
      ~enqueued_at:1 ~durable:true in
  Store.commit txn;
  Store.close st;
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir in
  let st2 = Store.open_store cfg in
  ignore (Store.compact st2);
  (* the crash: only what reached the files survives, not the heap's
     buffer pool *)
  let crash_dir = fresh_dir () in
  Array.iter
    (fun f ->
      let image = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat crash_dir f) (fun oc ->
          Out_channel.output_string oc image))
    (Sys.readdir dir);
  Store.close st2;
  let st3 = Store.open_store { cfg with Store.dir = Some crash_dir } in
  let body =
    match Store.get st3 r1 with
    | None -> "missing"
    | Some m -> ( try Store.payload st3 m with _ -> "unreadable")
  in
  check string_ "re-spilled body survives the crash" (big_payload 4000 5) body;
  Store.close st3

let test_spill_freed_by_gc () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  let r1 = Store.insert txn ~queue:"q" ~payload:(big_payload 4000 9) ~extra:""
      ~enqueued_at:1 ~durable:true in
  Store.commit txn;
  let txn = Store.begin_txn st in
  Store.delete txn r1;
  Store.commit txn;
  Store.checkpoint st;  (* drops tombstones, frees heap records *)
  check int_ "no spilled left" 0 (Store.stats st).Store.spilled_payloads;
  Store.close st

let test_spill_abort_frees () =
  let dir = fresh_dir () in
  let cfg = Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (Store.insert txn ~queue:"q" ~payload:(big_payload 4000 5) ~extra:""
            ~enqueued_at:1 ~durable:true);
  Store.abort txn;
  check int_ "nothing live" 0 (Store.stats st).Store.live_messages;
  check int_ "no spill retained" 0 (Store.stats st).Store.spilled_payloads;
  Store.close st

let spill_suite =
  [
    ("spill: roundtrip and threshold", `Quick, test_spill_roundtrip);
    ("spill: checkpoint + restart", `Quick, test_spill_survives_checkpoint_and_restart);
    ("spill: WAL-only recovery + re-spill", `Quick, test_spill_recovery_from_wal_only);
    ("spill: freed by tombstone drop", `Quick, test_spill_freed_by_gc);
    ("spill: abort frees", `Quick, test_spill_abort_frees);
    ("spill: re-spilled body durable before the snapshot", `Quick,
     test_spill_durable_before_snapshot);
  ]

let suite = suite @ spill_suite

(* ---- CRC and codec against their reference definitions ---- *)

(* The bytewise CRC the slicing-by-8 loop replaced: the reference every
   offset and tail length is checked against. *)
let reference_crc ?(init = 0xFFFFFFFF) s =
  let t =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
        done;
        !c)
  in
  let c = ref init in
  String.iter (fun ch -> c := t.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

let gen_bytes = QCheck.Gen.(string_size ~gen:char (int_range 0 72))

let prop_crc_sub_matches_reference =
  QCheck.Test.make ~name:"crc32 sub matches bytewise reference" ~count:60
    (QCheck.make ~print:String.escaped gen_bytes)
    (fun s ->
      let n = String.length s in
      let ok = ref true in
      for off = 0 to n do
        for len = 0 to min 64 (n - off) do
          if Crc32.sub s off len <> reference_crc (String.sub s off len) then ok := false
        done
      done;
      !ok && Crc32.string s = reference_crc s)

let prop_crc_init_chaining =
  QCheck.Test.make ~name:"crc32 init chaining matches reference" ~count:300
    QCheck.(
      make
        ~print:(fun (s, k, init) -> Printf.sprintf "%S %d %x" s k init)
        Gen.(triple gen_bytes (int_range 0 72) (int_range 0 0xFFFFFFFF)))
    (fun (s, k, init) ->
      let n = String.length s in
      let k = min k n in
      let a = String.sub s 0 k and b = String.sub s k (n - k) in
      Crc32.sub ~init s 0 n = reference_crc ~init s
      && Crc32.string ~init:(Crc32.string a lxor 0xFFFFFFFF) b = Crc32.string s
      && Crc32.sub ~init:(reference_crc a lxor 0xFFFFFFFF) s k (n - k) = reference_crc s)

let test_crc32_sub_check_value () =
  check int_ "check value in place" 0xCBF43926 (Crc32.sub "ab123456789cd" 2 9);
  check int_ "empty range" (Crc32.string "") (Crc32.sub "abc" 3 0);
  match Crc32.sub "abc" 2 2 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* [Writer.int] must write the bytes the Int64 path wrote, or logs and
   snapshots from before it stopped allocating would not replay. *)
let int64_bytes i =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  Bytes.to_string b

let put_int_bytes i =
  let w = Codec.Writer.create 8 in
  Codec.Writer.int w i;
  Codec.Writer.contents w

let test_put_int_edges () =
  List.iter
    (fun i ->
      check string_ (string_of_int i) (int64_bytes i) (put_int_bytes i);
      check int_ "reads back" i (Codec.get_int (Codec.reader (put_int_bytes i))))
    [ min_int; max_int; -1; 0; 1; 255; 256; -256; 1 lsl 55; -(1 lsl 55) ]

let prop_put_int_layout =
  QCheck.Test.make ~name:"put_int bytes = set_int64_le" ~count:1000 QCheck.int (fun i ->
      put_int_bytes i = int64_bytes i)

let test_codec_bounded_reader () =
  let w = Codec.Writer.create 32 in
  Codec.Writer.int w 7;
  Codec.Writer.string w "abcdef";
  let s = "xx" ^ Codec.Writer.contents w in
  let r = Codec.reader ~pos:2 ~len:8 s in
  check int_ "int within bound" 7 (Codec.get_int r);
  check bool_ "at end of the window" true (Codec.at_end r);
  let r = Codec.reader ~pos:2 ~len:(8 + 8 + 3) s in
  ignore (Codec.get_int r);
  match Codec.get_string r with
  | _ -> Alcotest.fail "string read past the window"
  | exception Codec.Decode_error _ -> ()

(* A record whose CRC is valid but whose body claims a string longer than
   the body itself: decoding must fail at the record's end and stop the
   replay there, not borrow bytes of the record behind it. The claimed
   length covers the rest of the body plus the whole next record exactly,
   so a reader bounded only by the file would decode it "successfully". *)
let frame body =
  let w = Codec.Writer.create (16 + String.length body) in
  Codec.Writer.int w (String.length body);
  Codec.Writer.int w (Crc32.string body);
  Codec.Writer.contents w ^ body

let commit_body txn ops =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let wal = Wal.open_log ~sync:Wal.Sync_never path in
  Wal.append wal (Wal.Commit { txn; ops });
  Wal.close wal;
  let s = In_channel.with_open_bin path In_channel.input_all in
  String.sub s 16 (String.length s - 16)

let test_replay_bounded_to_record () =
  let good = frame (commit_body 1 [ Wal.Mark_processed { rid = 1 } ]) in
  let next = frame (commit_body 3 [ Wal.Mark_processed { rid = 3 } ]) in
  let lying =
    let w = Codec.Writer.create 64 in
    Codec.Writer.char w 'C';
    Codec.Writer.int w 2;
    Codec.Writer.int w 1;
    Codec.Writer.char w 'D';
    Codec.Writer.int w 2;
    (* image length: the 4 bytes below plus all of [next] *)
    Codec.Writer.int w (4 + String.length next);
    frame (Codec.Writer.contents w ^ "abcd")
  in
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (good ^ lying ^ next));
  let txns = ref [] in
  let valid =
    Wal.replay path (function
      | Wal.Commit { txn; _ } -> txns := txn :: !txns
      | Wal.Checkpoint -> ())
  in
  check bool_ "only the record before the malformed one" true (!txns = [ 1 ]);
  check int_ "intact prefix ends before it" (String.length good) valid

let codec_suite =
  [
    ("crc32 sub: check value and range", `Quick, test_crc32_sub_check_value);
    QCheck_alcotest.to_alcotest prop_crc_sub_matches_reference;
    QCheck_alcotest.to_alcotest prop_crc_init_chaining;
    ("codec put_int edge values", `Quick, test_put_int_edges);
    QCheck_alcotest.to_alcotest prop_put_int_layout;
    ("codec reader bounded to its window", `Quick, test_codec_bounded_reader);
    ("wal replay: malformed body stops at its record", `Quick,
     test_replay_bounded_to_record);
  ]

let suite = suite @ codec_suite

(* ---- the rid-indexed message table ---- *)

(* A crash on either side of the snapshot slot's fsync during compaction:
   after it, the log still holds inserts the new snapshot already has;
   before it, the whole log replays, its inserts out of rid order (the
   transaction holding the lowest rid commits last). Over several pages
   of rids, every message is held exactly once, in rid order. *)
let test_replay_over_snapshot_once () =
  List.iter
    (fun stage ->
      let dir = fresh_dir () in
      let cfg =
        Store.durable_config
          ~sync:(Wal.Sync_batch { max_records = 10_000; max_bytes = 0 })
          dir
      in
      let st = Store.open_store cfg in
      let insert txn i =
        Store.insert txn ~queue:"q" ~payload:(Printf.sprintf "<m n='%d'/>" i)
          ~extra:"" ~enqueued_at:1 ~durable:true
      in
      let first = Store.begin_txn st in
      let r0 = insert first 0 in
      let later =
        List.init 2_500 (fun i ->
            let txn = Store.begin_txn st in
            let r = insert txn (i + 1) in
            Store.commit txn;
            r)
      in
      Store.commit first;
      ignore (Store.barrier st);
      Store.set_compaction_fault st
        (Some (fun s -> if s = stage then failwith "crash"));
      (match Store.compact st with
       | _ -> Alcotest.fail "the fault did not fire"
       | exception Failure _ -> ());
      Store.close st;
      let st2 = Store.open_store cfg in
      let want = r0 :: later in
      check Alcotest.(list int) "each message once, in rid order" want
        (List.map (fun m -> m.Store.rid) (Store.all_messages st2));
      check Alcotest.(list int) "the queue holds each once" want
        (List.sort compare (Store.queue_rids st2 "q"));
      check int_ "live count" (List.length want) (Store.stats st2).Store.live_messages;
      Store.close st2)
    [ Store.Before_commit; Store.After_commit ]

(* The message counts behind [stats] are counters; after any sequence of
   committed and aborted inserts and deletes and compactions they equal
   what a walk of a model of the table gives, and the live count equals
   a fold of the store. *)
type counted_op =
  | Insert_msgs of int list * bool  (* payload sizes, commit? *)
  | Delete_msg of int * bool  (* index into the live messages, commit? *)
  | Compact_store

let spill_at = 64

let gen_counted_op =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun sizes c -> Insert_msgs (sizes, c))
             (list_size (int_range 1 4) (int_range 1 (2 * spill_at))) bool);
        (3, map2 (fun i c -> Delete_msg (i, c)) (int_bound 50) bool);
        (1, return Compact_store);
      ])

let print_counted_op = function
  | Insert_msgs (sizes, c) ->
    Printf.sprintf "insert [%s]%s" (String.concat "," (List.map string_of_int sizes))
      (if c then "" else " abort")
  | Delete_msg (i, c) -> Printf.sprintf "delete #%d%s" i (if c then "" else " abort")
  | Compact_store -> "compact"

let prop_stats_counters =
  QCheck.Test.make ~name:"store stats counters equal a walk" ~count:40 ~long_factor:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_counted_op ops))
       QCheck.Gen.(list_size (int_range 1 30) gen_counted_op))
    (fun ops ->
      let dir = fresh_dir () in
      let st =
        Store.open_store
          (Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:spill_at dir)
      in
      (* rid -> (payload size, deleted) for every entry of the table *)
      let model = Hashtbl.create 16 in
      let finish txn commit = if commit then Store.commit txn else Store.abort txn in
      let apply = function
        | Insert_msgs (sizes, commit) ->
          let txn = Store.begin_txn st in
          let rids =
            List.map
              (fun n ->
                ( Store.insert txn ~queue:"q" ~payload:(String.make n 'x') ~extra:""
                    ~enqueued_at:1 ~durable:true,
                  n ))
              sizes
          in
          finish txn commit;
          if commit then List.iter (fun (r, n) -> Hashtbl.replace model r (n, false)) rids
        | Delete_msg (i, commit) -> (
          match List.nth_opt (Store.all_messages st) i with
          | None -> ()
          | Some m ->
            let txn = Store.begin_txn st in
            Store.delete txn m.Store.rid;
            finish txn commit;
            if commit then
              let n, _ = Hashtbl.find model m.Store.rid in
              Hashtbl.replace model m.Store.rid (n, true))
        | Compact_store ->
          ignore (Store.compact st);
          Hashtbl.filter_map_inplace
            (fun _ (n, d) -> if d then None else Some (n, d))
            model
      in
      let agrees () =
        let s = Store.stats st in
        let walk f = Hashtbl.fold (fun _ e acc -> acc + f e) model 0 in
        s.Store.live_messages = walk (fun (_, d) -> if d then 0 else 1)
        && s.Store.live_messages = Store.fold_messages st (fun n _ -> n + 1) 0
        && s.Store.tombstones = walk (fun (_, d) -> if d then 1 else 0)
        && s.Store.spilled_payloads = walk (fun (n, _) -> if n > spill_at then 1 else 0)
        && s.Store.inline_bytes = walk (fun (n, d) -> if d || n > spill_at then 0 else n)
      in
      let ok = List.for_all (fun op -> apply op; agrees ()) ops in
      Store.close st;
      ok)

(* Queue order is rid (arrival) order before a crash; the replay applies
   inserts in commit order, and must give the same order back. *)
let test_replay_keeps_queue_order () =
  let dir = fresh_dir () in
  let cfg =
    Store.durable_config
      ~sync:(Wal.Sync_batch { max_records = 10_000; max_bytes = 0 })
      dir
  in
  let st = Store.open_store cfg in
  let insert txn i =
    ignore
      (Store.insert txn ~queue:"q" ~payload:(Printf.sprintf "<m n='%d'/>" i)
         ~extra:"" ~enqueued_at:1 ~durable:true)
  in
  let first = Store.begin_txn st in
  insert first 0;
  for i = 1 to 2_500 do
    let txn = Store.begin_txn st in
    insert txn i;
    Store.commit txn
  done;
  Store.commit first;
  let before = Store.queue_rids st "q" in
  check int_ "lowest rid first" 1 (List.hd before);
  Store.close st;
  let st2 = Store.open_store cfg in
  check Alcotest.(list int) "queue order survives the replay" before
    (Store.queue_rids st2 "q");
  Store.close st2

let rid_table_suite =
  [
    ("replay over a snapshot holding its inserts: each message once", `Quick,
     test_replay_over_snapshot_once);
    QCheck_alcotest.to_alcotest prop_stats_counters;
    ("replay keeps queue order when the lowest rid commits last", `Quick,
     test_replay_keeps_queue_order);
  ]

let suite = suite @ rid_table_suite

(* ---- a collected message leaves the table when its delete commits ---- *)

(* [n] small inline messages with an extra each, inserted one transaction
   at a time, then deleted one transaction at a time *)
let insert_then_delete st n =
  let first = Store.next_rid st in
  for i = 1 to n do
    let txn = Store.begin_txn st in
    ignore
      (Store.insert txn ~queue:"q" ~payload:(Printf.sprintf "<m n='%d'/>" i)
         ~extra:(string_of_int i) ~enqueued_at:1 ~durable:true);
    Store.commit txn
  done;
  for rid = first to first + n - 1 do
    let txn = Store.begin_txn st in
    Store.delete txn rid;
    Store.commit txn
  done

(* A warm-up round grows the queue's rid vector and the table's
   directory; the measured round then adds nothing the store keeps. *)
let collected_store () =
  let st = mem_store () in
  insert_then_delete st 200;
  Store.checkpoint st;
  st

let test_collected_not_promoted () =
  let st = collected_store () in
  Gc.minor ();
  let _, before, _ = Gc.counters () in
  insert_then_delete st 200;
  Gc.minor ();
  let _, after, _ = Gc.counters () in
  (* a record, payload and extra kept until the checkpoint are about
     13 words a message, 2,600 for the round *)
  let promoted = int_of_float (after -. before) in
  check bool_ (Printf.sprintf "%d words promoted, under 300" promoted) true (promoted < 300);
  check int_ "nothing live" 0 (Store.stats st).Store.live_messages

let test_collected_no_pages () =
  let st = collected_store () in
  insert_then_delete st 200;
  check int_ "no page holds a collected message" 0 (Store.pages st);
  check int_ "their deletes await the checkpoint" 200 (Store.stats st).Store.tombstones;
  check int_ "their bodies left the inline account" 0 (Store.stats st).Store.inline_bytes

let test_collected_spilled_body () =
  (* a deleted spilled body leaves the table with its message, but its
     heap record stays until the checkpoint frees it: the snapshot on
     disk may still name it. An aborted delete keeps its body. *)
  let dir = fresh_dir () in
  let st =
    Store.open_store (Store.durable_config ~sync:Wal.Sync_never ~spill_threshold:256 dir)
  in
  let insert_big n =
    let txn = Store.begin_txn st in
    let r =
      Store.insert txn ~queue:"q" ~payload:(big_payload 4000 n) ~extra:"" ~enqueued_at:1
        ~durable:true
    in
    Store.commit txn;
    r
  in
  let delete rid commit =
    let txn = Store.begin_txn st in
    Store.delete txn rid;
    if commit then Store.commit txn else Store.abort txn
  in
  let r1 = insert_big 1 in
  let m1 = Option.get (Store.get st r1) in
  delete r1 true;
  check int_ "the message left the table" 0 (Store.pages st);
  check int_ "its heap record stays" 1 (Store.stats st).Store.spilled_payloads;
  check string_ "and still reads" (big_payload 4000 1) (Store.payload st m1);
  let r2 = insert_big 2 in
  delete r2 false;
  check int_ "two heap records" 2 (Store.stats st).Store.spilled_payloads;
  Store.checkpoint st;
  check int_ "the checkpoint frees the deleted body only" 1
    (Store.stats st).Store.spilled_payloads;
  check (Alcotest.list int_) "the aborted delete's message" [ r2 ] (Store.queue_rids st "q");
  check string_ "and its body" (big_payload 4000 2)
    (Store.payload st (Option.get (Store.get st r2)));
  Store.close st

(* the files of [dir] as a crash leaves them: what reached the files *)
let crash_copy dir =
  let copy = fresh_dir () in
  Array.iter
    (fun f ->
      let image = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat copy f) (fun oc ->
          Out_channel.output_string oc image))
    (Sys.readdir dir);
  copy

let test_crash_after_collect () =
  (* a committed delete, then a crash before the checkpoint. Unlogged
     (the default), the crash undoes the delete: the message reopens with
     its body, from the snapshot's heap record or the log. Logged, it
     stays deleted, and the next checkpoint frees the spilled body. *)
  List.iter
    (fun log_deletions ->
      let tag = if log_deletions then "logged" else "unlogged" in
      let dir = fresh_dir () in
      let cfg =
        Store.durable_config ~sync:Wal.Sync_always ~log_deletions ~spill_threshold:256 dir
      in
      let st = Store.open_store cfg in
      let txn = Store.begin_txn st in
      let spilled =
        Store.insert txn ~queue:"q" ~payload:(big_payload 4000 3) ~extra:"" ~enqueued_at:1
          ~durable:true
      in
      Store.commit txn;
      Store.checkpoint st;
      let txn = Store.begin_txn st in
      let inline = insert_msg txn "q" "<m/>" in
      Store.commit txn;
      let txn = Store.begin_txn st in
      Store.delete txn spilled;
      Store.delete txn inline;
      Store.commit txn;
      let crashed = crash_copy dir in
      Store.close st;
      let st = Store.open_store { cfg with Store.dir = Some crashed } in
      let expect live =
        check (Alcotest.list int_) (tag ^ ": messages") live (Store.queue_rids st "q");
        List.iter
          (fun rid ->
            check string_ (tag ^ ": body")
              (if rid = spilled then big_payload 4000 3 else "<m/>")
              (Store.payload st (Option.get (Store.get st rid))))
          live
      in
      let live = if log_deletions then [] else [ spilled; inline ] in
      expect live;
      check int_ (tag ^ ": replayed deletes") (if log_deletions then 2 else 0)
        (Store.stats st).Store.tombstones;
      check int_ (tag ^ ": heap record kept") 1 (Store.stats st).Store.spilled_payloads;
      ignore (Store.compact st);
      expect live;
      check int_ (tag ^ ": heap records after the checkpoint")
        (if log_deletions then 0 else 1)
        (Store.stats st).Store.spilled_payloads;
      Store.close st)
    [ false; true ]

let collect_suite =
  [
    ("collected messages are not promoted", `Quick, test_collected_not_promoted);
    ("collected messages hold no table page", `Quick, test_collected_no_pages);
    ("collected spilled body freed at the checkpoint", `Quick, test_collected_spilled_body);
    ("crash after a committed delete reopens as before", `Quick, test_crash_after_collect);
  ]

let suite = suite @ collect_suite
