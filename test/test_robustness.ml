(* Robustness: crash-point recovery matrix, heap invariants, and parser
   fuzz safety (malformed input must fail with
   the documented exception, never crash or loop). *)

module Store = Demaq.Store.Message_store
module Wal = Demaq.Store.Wal
module Heap = Demaq.Engine.Heap
module Xml_parser = Demaq.Xml.Parser
module Xq_parser = Demaq.Xquery.Parser
module Qdl = Demaq.Lang.Qdl

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-robust-%s-%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

(* ---- crash-point matrix ----

   Write a known history of transactions, then simulate a crash at every
   byte position of the log by truncating a copy. After recovery the store
   must contain a prefix of the committed transactions: never a partial
   transaction, never a later transaction without all earlier ones. *)

let test_crash_point_matrix () =
  let dir = fresh_dir "crash" in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  (* txn i inserts messages (3i-2, 3i-1, 3i) atomically *)
  for i = 1 to 5 do
    let txn = Store.begin_txn st in
    for j = 1 to 3 do
      ignore
        (Store.insert txn ~queue:"q"
           ~payload:(Printf.sprintf "<m t='%d' j='%d'/>" i j)
           ~extra:"" ~enqueued_at:i ~durable:true)
    done;
    Store.commit txn
  done;
  Store.close st;
  let wal_path = Filename.concat dir "wal.log" in
  let full = In_channel.with_open_bin wal_path In_channel.input_all in
  let total = String.length full in
  let crash_dir = fresh_dir "crash-replay" in
  let violations = ref [] in
  (* test a spread of truncation points including every record boundary *)
  let points = List.init 61 (fun i -> i * total / 60) in
  List.iter
    (fun cut ->
      Out_channel.with_open_bin (Filename.concat crash_dir "wal.log") (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      List.iter
        (fun f ->
          let snapshot = Filename.concat crash_dir f in
          if Sys.file_exists snapshot then Sys.remove snapshot)
        [ "snapshot.0"; "snapshot.1" ];
      let st = Store.open_store (Store.durable_config ~sync:Wal.Sync_never crash_dir) in
      let n = Store.queue_length st "q" in
      Store.close st;
      (* atomicity: only whole transactions *)
      if n mod 3 <> 0 then violations := (cut, n) :: !violations)
    points;
  check bool_
    (Printf.sprintf "whole transactions only (violations at %s)"
       (String.concat ","
          (List.map (fun (c, n) -> Printf.sprintf "%d:%d" c n) !violations)))
    true (!violations = []);
  (* the full log recovers everything *)
  Out_channel.with_open_bin (Filename.concat crash_dir "wal.log") (fun oc ->
      Out_channel.output_string oc full);
  let st = Store.open_store (Store.durable_config ~sync:Wal.Sync_never crash_dir) in
  check int_ "full history" 15 (Store.queue_length st "q");
  Store.close st

let test_crash_during_checkpoint_tmp () =
  (* garbage in a snapshot slot (crash mid-checkpoint) must be ignored:
     the store recovers from the log *)
  let dir = fresh_dir "ckpt" in
  let cfg = Store.durable_config ~sync:Wal.Sync_never dir in
  let st = Store.open_store cfg in
  let txn = Store.begin_txn st in
  ignore (Store.insert txn ~queue:"q" ~payload:"<a/>" ~extra:"" ~enqueued_at:1 ~durable:true);
  Store.commit txn;
  Store.close st;
  List.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
          Out_channel.output_string oc "garbage-partial-snapshot"))
    [ "snapshot.0"; "snapshot.1" ];
  let st = Store.open_store cfg in
  check int_ "recovered from log despite garbage slots" 1 (Store.queue_length st "q");
  Store.close st

(* ---- heap ordering ---- *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

(* ---- parser fuzz safety ---- *)

let gen_junk =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 30)
         (oneofl
            [ "<"; ">"; "/"; "a"; "b"; "("; ")"; "{"; "}"; "\""; "'"; "&"; ";";
              " "; "$"; "="; "!"; "["; "]"; ","; "1"; "if"; "then"; "do"; ":";
              "enqueue"; "<a>"; "</a>"; "//"; "create"; "queue"; "--"; "<!" ])))

let prop_xml_fuzz =
  QCheck.Test.make ~name:"XML parser: junk fails cleanly" ~count:500
    (QCheck.make gen_junk ~print:Fun.id)
    (fun s ->
      match Xml_parser.parse s with
      | _ -> true
      | exception Xml_parser.Parse_error _ -> true
      | exception _ -> false)

let prop_xquery_fuzz =
  QCheck.Test.make ~name:"XQuery parser: junk fails cleanly" ~count:500
    (QCheck.make gen_junk ~print:Fun.id)
    (fun s ->
      match Xq_parser.parse s with
      | _ -> true
      | exception Xq_parser.Syntax_error _ -> true
      | exception _ -> false)

let prop_qdl_fuzz =
  QCheck.Test.make ~name:"QDL parser: junk fails cleanly" ~count:500
    (QCheck.make gen_junk ~print:Fun.id)
    (fun s ->
      match Qdl.parse_program s with
      | _ -> true
      | exception Qdl.Qdl_error _ -> true
      | exception _ -> false)

(* well-formed expressions evaluate or raise Eval_error, never crash *)
let gen_exprs =
  QCheck.Gen.(
    oneofl
      [ "1 idiv 0"; "//a[1 to 3]"; "sum(('a', 'b'))"; "substring('x', 0 - 5)";
        "let $x := <a/> return $x/.."; "(1, 2)[true()]"; "string((1, 2))";
        "avg(//missing)"; "max(())"; "<a>{/}</a>"; "()[1]"; "(//a)[last() + 1]";
        "qs:message()"; "-'x'"; "1 + 'y'"; "element {1 + 1} {2}";
        "concat('a', 'b', 'c', 'd', 'e')"; "index-of((), 1)" ])

let prop_eval_total =
  QCheck.Test.make ~name:"evaluator: corner expressions never crash" ~count:200
    (QCheck.make gen_exprs ~print:Fun.id)
    (fun src ->
      let ctx = Demaq.xml "<r><a>1</a></r>" in
      match Demaq.Xquery.Eval.run ~context:ctx src with
      | _ -> true
      | exception Demaq.Xquery.Context.Eval_error _ -> true
      | exception _ -> false)

let suite =
  [
    ("crash-point matrix", `Quick, test_crash_point_matrix);
    ("crash during checkpoint", `Quick, test_crash_during_checkpoint_tmp);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_xml_fuzz;
    QCheck_alcotest.to_alcotest prop_xquery_fuzz;
    QCheck_alcotest.to_alcotest prop_qdl_fuzz;
    QCheck_alcotest.to_alcotest prop_eval_total;
  ]
