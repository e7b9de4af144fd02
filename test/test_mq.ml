(* Tests for lib/mq: property computation, schema enforcement, slicing
   semantics, retention GC (paper §2). *)

module Tree = Demaq.Xml.Tree
module Schema = Demaq.Xml.Schema
module Value = Demaq.Value
module Ast = Demaq.Xquery.Ast
module Xq = Demaq.Xquery.Parser
module Store = Demaq.Store.Message_store
module Defs = Demaq.Mq.Defs
module Message = Demaq.Message
module Qm = Demaq.Mq.Queue_manager

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let xml = Demaq.xml

(* A fixture mirroring the paper's §2.2/§2.3 declarations. *)
let fixture ?clock () =
  let st = Store.open_store Store.default_config in
  let qm = Qm.create ?clock st in
  List.iter
    (fun name -> Qm.add_queue qm (Defs.queue name))
    [ "order"; "confirmation"; "crm"; "finance"; "legal"; "customer" ];
  Qm.add_queue qm (Defs.queue ~mode:Defs.Transient "scratch");
  (* create property orderID as xs:string fixed
       queue order value //orderID
       queue confirmation value /confirmedOrder/ID         (§2.2) *)
  Qm.add_property qm
    {
      Defs.pname = "orderID";
      ptype = Value.T_string;
      disposition = Defs.Fixed;
      per_queue =
        [
          ([ "order" ], Xq.parse "//orderID");
          ([ "confirmation" ], Xq.parse "/confirmedOrder/ID");
        ];
    };
  (* create property isVIPorder as xs:boolean inherited
       queue crm, finance, legal, customer value false     (§2.2) *)
  Qm.add_property qm
    {
      Defs.pname = "isVIPorder";
      ptype = Value.T_boolean;
      disposition = Defs.Inherited;
      per_queue = [ ([ "crm"; "finance"; "legal"; "customer" ], Xq.parse "false()") ];
    };
  (* create slicing orders on orderID                      (§2.3.1) *)
  Qm.add_slicing qm { Defs.sname = "orders"; slice_property = "orderID" };
  qm

let enqueue ?rule ?trigger ?explicit qm queue payload =
  let txn = Store.begin_txn (Qm.store qm) in
  let result = Qm.enqueue qm txn ?rule ?trigger ?explicit ~queue ~payload:(xml payload) () in
  Store.commit txn;
  result

let enqueue_ok ?rule ?trigger ?explicit qm queue payload =
  match enqueue ?rule ?trigger ?explicit qm queue payload with
  | Ok m -> m
  | Error e -> Alcotest.failf "enqueue failed: %s" (Qm.error_to_string e)

let prop_str m name =
  Option.map Value.string_of_atomic (Message.property m name)

(* ---- property computation ---- *)

let test_computed_property () =
  let qm = fixture () in
  let m = enqueue_ok qm "order" "<order><orderID>o1</orderID></order>" in
  check (Alcotest.option string_) "computed from body" (Some "o1") (prop_str m "orderID");
  (* different expression for the confirmation queue *)
  let m2 = enqueue_ok qm "confirmation" "<confirmedOrder><ID>o2</ID></confirmedOrder>" in
  check (Alcotest.option string_) "per-queue expression" (Some "o2") (prop_str m2 "orderID")

let test_computed_property_absent () =
  let qm = fixture () in
  let m = enqueue_ok qm "order" "<order/>" in
  check (Alcotest.option string_) "no value when path empty" None (prop_str m "orderID")

let test_fixed_property_rejects_explicit () =
  let qm = fixture () in
  match
    enqueue qm "order" ~explicit:[ ("orderID", Value.String "forced") ]
      "<order><orderID>o1</orderID></order>"
  with
  | Error (Qm.Fixed_property_set { property = "orderID" }) -> ()
  | _ -> Alcotest.fail "expected Fixed_property_set"

let test_inherited_property () =
  let qm = fixture () in
  (* default value from the expression when nothing to inherit *)
  let m = enqueue_ok qm "crm" "<req/>" in
  check (Alcotest.option string_) "default false" (Some "false") (prop_str m "isVIPorder");
  (* explicit wins over the default *)
  let vip =
    enqueue_ok qm "crm" ~explicit:[ ("isVIPorder", Value.Boolean true) ] "<req/>"
  in
  check (Alcotest.option string_) "explicit true" (Some "true") (prop_str vip "isVIPorder");
  (* and propagates to messages triggered by it *)
  let child = enqueue_ok qm "finance" ~trigger:vip "<check/>" in
  check (Alcotest.option string_) "inherited true" (Some "true")
    (prop_str child "isVIPorder");
  let grandchild = enqueue_ok qm "customer" ~trigger:child "<reply/>" in
  check (Alcotest.option string_) "inherited transitively" (Some "true")
    (prop_str grandchild "isVIPorder")

let test_property_cast () =
  let qm = fixture () in
  (* explicit string "true" is cast to the declared xs:boolean *)
  let m =
    enqueue_ok qm "crm" ~explicit:[ ("isVIPorder", Value.String "true") ] "<r/>"
  in
  check bool_ "cast to boolean" true
    (Message.property m "isVIPorder" = Some (Value.Boolean true));
  match enqueue qm "crm" ~explicit:[ ("isVIPorder", Value.String "maybe") ] "<r/>" with
  | Error (Qm.Property_error _) -> ()
  | _ -> Alcotest.fail "expected cast error"

let test_system_properties () =
  let ticks = ref 100 in
  let qm = fixture ~clock:(fun () -> incr ticks; !ticks) () in
  let m = enqueue_ok ~rule:"myRule" qm "crm" "<r/>" in
  check (Alcotest.option string_) "creating rule recorded" (Some "myRule")
    (prop_str m Defs.Sysprop.rule);
  check bool_ "timestamp from clock" true
    (match Message.property m Defs.Sysprop.timestamp with
     | Some (Value.Integer t) -> t > 100
     | _ -> false);
  (* connection handles propagate automatically (§2.2) *)
  let with_conn =
    enqueue_ok qm "crm" ~explicit:[ (Defs.Sysprop.connection, Value.Integer 7) ] "<r/>"
  in
  let reply = enqueue_ok qm "customer" ~trigger:with_conn "<ok/>" in
  check (Alcotest.option string_) "connection propagated" (Some "7")
    (prop_str reply Defs.Sysprop.connection)

let test_undeclared_explicit_props () =
  let qm = fixture () in
  let m =
    enqueue_ok qm "crm"
      ~explicit:[ ("timeout", Value.Integer 30); ("target", Value.String "finance") ]
      "<r/>"
  in
  check (Alcotest.option string_) "free-form timeout" (Some "30") (prop_str m "timeout");
  check (Alcotest.option string_) "free-form target" (Some "finance")
    (prop_str m "target")

(* ---- schema enforcement ---- *)

let test_schema_enforcement () =
  let st = Store.open_store Store.default_config in
  let qm = Qm.create st in
  let schema =
    match Schema.parse "element order { orderID } element orderID { text }" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Qm.add_queue qm (Defs.queue ~schema "orders");
  (match enqueue qm "orders" "<order><orderID>1</orderID></order>" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "valid rejected: %s" (Qm.error_to_string e));
  match enqueue qm "orders" "<order><unexpected/></order>" with
  | Error (Qm.Schema_violation _) -> ()
  | _ -> Alcotest.fail "expected schema violation"

let test_unknown_queue () =
  let qm = fixture () in
  match enqueue qm "nope" "<x/>" with
  | Error (Qm.Unknown_queue "nope") -> ()
  | _ -> Alcotest.fail "expected unknown queue"

(* ---- slicing (§2.3, Fig. 2) ---- *)

let order_msg id = Printf.sprintf "<order><orderID>%s</orderID></order>" id
let conf_msg id = Printf.sprintf "<confirmedOrder><ID>%s</ID></confirmedOrder>" id

let test_slice_groups_across_queues () =
  let qm = fixture () in
  let _o1 = enqueue_ok qm "order" (order_msg "A") in
  let _o2 = enqueue_ok qm "order" (order_msg "B") in
  let _c1 = enqueue_ok qm "confirmation" (conf_msg "A") in
  let slice_a = Qm.slice_messages qm ~slicing:"orders" ~key:"A" () in
  check int_ "order+confirmation for A" 2 (List.length slice_a);
  check bool_ "spans queues" true
    (List.sort compare (List.map (fun m -> m.Message.queue) slice_a)
     = [ "confirmation"; "order" ]);
  check int_ "B separate" 1 (List.length (Qm.slice_messages qm ~slicing:"orders" ~key:"B" ()));
  check bool_ "keys listed" true
    (List.sort compare (Qm.slice_keys qm ~slicing:"orders") = [ "A"; "B" ])

let test_slice_index_and_scan_agree () =
  let qm = fixture () in
  for i = 1 to 30 do
    let id = Printf.sprintf "K%d" (i mod 5) in
    ignore (enqueue_ok qm "order" (order_msg id));
    if i mod 3 = 0 then ignore (enqueue_ok qm "confirmation" (conf_msg id))
  done;
  List.iter
    (fun key ->
      let by_index =
        List.map (fun m -> m.Message.rid)
          (Qm.slice_messages qm ~use_index:true ~slicing:"orders" ~key ())
      in
      let by_scan =
        List.sort compare
          (List.map (fun m -> m.Message.rid)
             (Qm.slice_messages qm ~use_index:false ~slicing:"orders" ~key ()))
      in
      check bool_ ("index = scan for " ^ key) true (List.sort compare by_index = by_scan))
    [ "K0"; "K1"; "K2"; "K3"; "K4"; "missing" ]

let test_slice_reset_lifetimes () =
  let qm = fixture () in
  let st = Qm.store qm in
  ignore (enqueue_ok qm "order" (order_msg "A"));
  check int_ "one member" 1 (List.length (Qm.slice_messages qm ~slicing:"orders" ~key:"A" ()));
  let txn = Store.begin_txn st in
  Qm.reset_slice qm txn ~slicing:"orders" ~key:"A";
  Store.commit txn;
  check int_ "invisible after reset" 0
    (List.length (Qm.slice_messages qm ~slicing:"orders" ~key:"A" ()));
  (* a new lifetime starts: new messages are visible again *)
  ignore (enqueue_ok qm "order" (order_msg "A"));
  let members = Qm.slice_messages qm ~slicing:"orders" ~key:"A" () in
  check int_ "new lifetime member" 1 (List.length members);
  (* the old message is still physically there until GC *)
  check int_ "order queue keeps both" 2 (Qm.queue_length qm "order")

(* ---- retention (§2.3.3) ---- *)

let mark qm m =
  let txn = Store.begin_txn (Qm.store qm) in
  Qm.mark_processed qm txn m;
  Store.commit txn

let test_retention_rules () =
  let qm = fixture () in
  let sliced = enqueue_ok qm "order" (order_msg "A") in
  let unsliced = enqueue_ok qm "crm" "<r/>" in
  (* unprocessed messages are never deletable *)
  check bool_ "unprocessed sliced" false (Qm.deletable qm sliced);
  check bool_ "unprocessed unsliced" false (Qm.deletable qm unsliced);
  mark qm sliced;
  mark qm unsliced;
  let sliced = Option.get (Qm.get qm sliced.Message.rid) in
  let unsliced = Option.get (Qm.get qm unsliced.Message.rid) in
  (* processed and in no slice: deletable; in a live slice: retained *)
  check bool_ "processed in live slice retained" false (Qm.deletable qm sliced);
  check bool_ "processed in no slice deletable" true (Qm.deletable qm unsliced);
  (* after the slice is reset, the sliced message becomes deletable too *)
  let txn = Store.begin_txn (Qm.store qm) in
  Qm.reset_slice qm txn ~slicing:"orders" ~key:"A";
  Store.commit txn;
  check bool_ "deletable after reset" true (Qm.deletable qm sliced)

let test_gc () =
  let qm = fixture () in
  let m1 = enqueue_ok qm "order" (order_msg "A") in
  let m2 = enqueue_ok qm "order" (order_msg "B") in
  let m3 = enqueue_ok qm "crm" "<r/>" in
  mark qm m1;
  mark qm m2;
  mark qm m3;
  (* only the unsliced m3 can go *)
  check int_ "first gc" 1 (Qm.gc qm);
  check bool_ "m3 gone" true (Qm.get qm m3.Message.rid = None);
  check bool_ "m1 kept" true (Qm.get qm m1.Message.rid <> None);
  let txn = Store.begin_txn (Qm.store qm) in
  Qm.reset_slice qm txn ~slicing:"orders" ~key:"A";
  Store.commit txn;
  check int_ "second gc" 1 (Qm.gc qm);
  check bool_ "m1 gone" true (Qm.get qm m1.Message.rid = None);
  check bool_ "m2 survives (own slice live)" true (Qm.get qm m2.Message.rid <> None);
  (* index entries for collected messages are dropped *)
  check bool_ "keys shrunk" true (Qm.slice_keys qm ~slicing:"orders" = [ "B" ])

let test_multi_slice_retention () =
  (* A message in two slicings is retained until BOTH are reset. *)
  let st = Store.open_store Store.default_config in
  let qm = Qm.create st in
  Qm.add_queue qm (Defs.queue "q");
  List.iter
    (fun (p, path) ->
      Qm.add_property qm
        {
          Defs.pname = p;
          ptype = Value.T_string;
          disposition = Defs.Free;
          per_queue = [ ([ "q" ], Xq.parse path) ];
        })
    [ ("byOrder", "//oid"); ("byCustomer", "//cid") ];
  Qm.add_slicing qm { Defs.sname = "orders"; slice_property = "byOrder" };
  Qm.add_slicing qm { Defs.sname = "customers"; slice_property = "byCustomer" };
  let m = enqueue_ok qm "q" "<m><oid>o1</oid><cid>c1</cid></m>" in
  mark qm m;
  let m = Option.get (Qm.get qm m.Message.rid) in
  check bool_ "held by two slices" false (Qm.deletable qm m);
  let txn = Store.begin_txn st in
  Qm.reset_slice qm txn ~slicing:"orders" ~key:"o1";
  Store.commit txn;
  check bool_ "still held by customers" false (Qm.deletable qm m);
  let txn = Store.begin_txn st in
  Qm.reset_slice qm txn ~slicing:"customers" ~key:"c1";
  Store.commit txn;
  check bool_ "released by both" true (Qm.deletable qm m);
  check int_ "gc collects" 1 (Qm.gc qm)

(* ---- persistence of the mq layer ---- *)

let test_mq_recovery_rebuilds_indexes () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-mq-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let cfg = Store.durable_config ~sync:Demaq.Store.Wal.Sync_never dir in
  let build st =
    let qm = Qm.create st in
    Qm.add_queue qm (Defs.queue "order");
    Qm.add_property qm
      {
        Defs.pname = "orderID";
        ptype = Value.T_string;
        disposition = Defs.Fixed;
        per_queue = [ ([ "order" ], Xq.parse "//orderID") ];
      };
    Qm.add_slicing qm { Defs.sname = "orders"; slice_property = "orderID" };
    Qm.rebuild_indexes qm;
    qm
  in
  let st = Store.open_store cfg in
  let qm = build st in
  ignore (enqueue_ok qm "order" (order_msg "A"));
  ignore (enqueue_ok qm "order" (order_msg "A"));
  ignore (enqueue_ok qm "order" (order_msg "B"));
  Store.close st;
  let st2 = Store.open_store cfg in
  let qm2 = build st2 in
  check int_ "A slice rebuilt" 2
    (List.length (Qm.slice_messages qm2 ~slicing:"orders" ~key:"A" ()));
  check int_ "B slice rebuilt" 1
    (List.length (Qm.slice_messages qm2 ~slicing:"orders" ~key:"B" ()));
  (* properties survive via the extra blob *)
  let m = List.hd (Qm.queue_messages qm2 "order") in
  check (Alcotest.option string_) "props recovered" (Some "A") (prop_str m "orderID");
  Store.close st2

(* ---- qcheck: retention invariant ---- *)

let prop_retention =
  QCheck.Test.make ~name:"gc never collects a live-slice or unprocessed message"
    ~count:60
    QCheck.(small_list (pair (int_bound 4) bool))
    (fun script ->
      let qm = fixture () in
      let all = ref [] in
      List.iter
        (fun (k, process) ->
          let m = enqueue_ok qm "order" (order_msg (string_of_int k)) in
          if process then mark qm m;
          all := m.Message.rid :: !all)
        script;
      (* reset slices 0 and 1 *)
      let txn = Store.begin_txn (Qm.store qm) in
      Qm.reset_slice qm txn ~slicing:"orders" ~key:"0";
      Qm.reset_slice qm txn ~slicing:"orders" ~key:"1";
      Store.commit txn;
      ignore (Qm.gc qm);
      List.for_all
        (fun rid ->
          match Qm.get qm rid with
          | Some m ->
            (* survivor: must be unprocessed or in a live slice *)
            (not m.Message.processed)
            || List.exists (Qm.membership_current qm m) m.Message.memberships
          | None -> true)
        !all)

let suite =
  [
    ("computed properties per queue", `Quick, test_computed_property);
    ("computed property absent when path empty", `Quick, test_computed_property_absent);
    ("fixed property rejects explicit", `Quick, test_fixed_property_rejects_explicit);
    ("inherited properties", `Quick, test_inherited_property);
    ("property casting", `Quick, test_property_cast);
    ("system properties", `Quick, test_system_properties);
    ("undeclared explicit properties", `Quick, test_undeclared_explicit_props);
    ("schema enforcement", `Quick, test_schema_enforcement);
    ("unknown queue", `Quick, test_unknown_queue);
    ("slices group across queues (Fig. 2)", `Quick, test_slice_groups_across_queues);
    ("slice index agrees with scan", `Quick, test_slice_index_and_scan_agree);
    ("slice reset lifetimes (§2.3.2)", `Quick, test_slice_reset_lifetimes);
    ("retention rules (§2.3.3)", `Quick, test_retention_rules);
    ("gc", `Quick, test_gc);
    ("multi-slice retention", `Quick, test_multi_slice_retention);
    ("recovery rebuilds indexes", `Quick, test_mq_recovery_rebuilds_indexes);
    QCheck_alcotest.to_alcotest prop_retention;
  ]

(* qcheck: materialized index and scan agree under random interleavings of
   enqueues, resets and GC (the §4.3 equivalence, stated as a property) *)

type slice_op = Op_enqueue of int | Op_reset of int | Op_process_all | Op_gc

let gen_slice_ops =
  QCheck.Gen.(
    small_list
      (frequency
         [
           (5, map (fun k -> Op_enqueue k) (int_bound 4));
           (2, map (fun k -> Op_reset k) (int_bound 4));
           (1, return Op_process_all);
           (1, return Op_gc);
         ]))

let prop_index_scan_equivalent =
  QCheck.Test.make ~name:"slice index = scan under random op interleavings"
    ~count:80 (QCheck.make gen_slice_ops)
    (fun ops ->
      let qm = fixture () in
      List.iter
        (fun op ->
          match op with
          | Op_enqueue k ->
            ignore (enqueue_ok qm "order" (order_msg (string_of_int k)))
          | Op_reset k ->
            let txn = Store.begin_txn (Qm.store qm) in
            Qm.reset_slice qm txn ~slicing:"orders" ~key:(string_of_int k);
            Store.commit txn
          | Op_process_all ->
            List.iter (fun m -> mark qm m) (Qm.queue_messages qm "order")
          | Op_gc -> ignore (Qm.gc qm))
        ops;
      List.for_all
        (fun k ->
          let key = string_of_int k in
          let rids use_index =
            List.sort compare
              (List.map
                 (fun m -> m.Message.rid)
                 (Qm.slice_messages qm ~use_index ~slicing:"orders" ~key ()))
          in
          rids true = rids false)
        [ 0; 1; 2; 3; 4 ])

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_index_scan_equivalent ]

(* An aborted enqueue leaves no decoded message behind in the cache, so
   a run of aborts cannot pin cache pages, and no posting in the slice
   index; a committed one stays cached and indexed. *)
let test_abort_evicts_cache () =
  let qm = fixture () in
  let before = Qm.cache_size qm in
  let txn = Store.begin_txn (Qm.store qm) in
  let m =
    match Qm.enqueue qm txn ~queue:"order" ~payload:(xml (order_msg "7")) () with
    | Ok m -> m
    | Error e -> Alcotest.fail (Qm.error_to_string e)
  in
  check int_ "cached while the transaction runs" (before + 1) (Qm.cache_size qm);
  Store.abort txn;
  check int_ "evicted by the abort" before (Qm.cache_size qm);
  check bool_ "and gone from the store" true (Qm.get qm m.Message.rid = None);
  check (Alcotest.list string_) "and from the slice index" []
    (Qm.slice_keys qm ~slicing:"orders");
  ignore (enqueue_ok qm "order" (order_msg "8"));
  check int_ "a committed enqueue stays cached" (before + 1) (Qm.cache_size qm);
  check (Alcotest.list string_) "and indexed" [ "8" ] (Qm.slice_keys qm ~slicing:"orders")

let suite =
  suite @ [ ("aborted enqueue leaves the cache", `Quick, test_abort_evicts_cache) ]
