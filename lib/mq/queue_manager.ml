module Tree = Demaq_xml.Tree
module Schema = Demaq_xml.Schema
module Value = Demaq_xquery.Value
module Eval = Demaq_xquery.Eval
module Context = Demaq_xquery.Context
module Store = Demaq_store.Message_store
module Btree = Demaq_store.Btree
module Rid_table = Demaq_store.Rid_table

type error =
  | Unknown_queue of string
  | Schema_violation of { queue : string; reason : string }
  | Fixed_property_set of { property : string }
  | Property_error of { property : string; reason : string }

let error_to_string = function
  | Unknown_queue q -> Printf.sprintf "unknown queue: %s" q
  | Schema_violation { queue; reason } ->
    Printf.sprintf "schema violation on queue %s: %s" queue reason
  | Fixed_property_set { property } ->
    Printf.sprintf "fixed property %s may not be set explicitly" property
  | Property_error { property; reason } ->
    Printf.sprintf "error computing property %s: %s" property reason

exception Queue_error of error

type t = {
  store : Store.t;
  queues : (string, Defs.queue_def) Hashtbl.t;
  mutable echo_queues : string list;  (* names of the [Echo] queues *)
  mutable properties : Defs.property_def list;  (* declaration order *)
  mutable slicings : Defs.slicing_def list;
  indexes : (string, int Btree.t) Hashtbl.t;  (* slicing -> key -> rids *)
  collections : (string, Tree.tree list) Hashtbl.t;
  cache : Message.t Rid_table.t;
      (* rid -> decoded message: the messages the engine scheduled, and
         those a read built from their store record *)
  clock : unit -> int;
  mutable gc_cursor : int;
      (* next rid the incremental GC scan examines; wraps to 0 at the end
         of the store so every message is eventually revisited *)
}

let store t = t.store

let default_clock () =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

let index_for t slicing =
  match Hashtbl.find_opt t.indexes slicing with
  | Some idx -> idx
  | None ->
    let idx = Btree.create () in
    Hashtbl.replace t.indexes slicing idx;
    idx

let add_queue t def =
  let name = def.Defs.qname in
  Hashtbl.replace t.queues name def;
  t.echo_queues <- List.filter (fun q -> q <> name) t.echo_queues;
  if def.Defs.kind = Defs.Echo then t.echo_queues <- name :: t.echo_queues

let is_echo t name = t.echo_queues <> [] && List.mem name t.echo_queues

let add_property t def = t.properties <- t.properties @ [ def ]

let add_slicing t def =
  t.slicings <- t.slicings @ [ def ];
  ignore (index_for t def.Defs.sname)

let find_queue t name = Hashtbl.find_opt t.queues name

let find_slicing t name =
  List.find_opt (fun s -> s.Defs.sname = name) t.slicings

let queue_defs t = Hashtbl.fold (fun _ d acc -> d :: acc) t.queues []

let set_collection t name docs = Hashtbl.replace t.collections name docs
let collection t name = Option.value ~default:[] (Hashtbl.find_opt t.collections name)

(* ---- message access with cache ---- *)

(* the empty slot of [cache] *)
let no_message =
  let body = Tree.text "" in
  {
    Message.rid = -1;
    queue = "";
    raw = Lazy.from_val "";
    body = Lazy.from_val body;
    doc = lazy (Tree.root_node (Tree.doc body));
    props = [];
    memberships = [];
    prov = Message.no_provenance;
    enqueued_at = 0;
    processed = false;
  }

(* Drop a message's cache entry, if it has one, and its slice-index
   postings, named by its memberships: when the GC collects it, and when
   the transaction that inserted it aborts. *)
let forget t rid memberships =
  Rid_table.remove t.cache rid;
  List.iter
    (fun mem ->
      match Hashtbl.find_opt t.indexes mem.Message.m_slicing with
      | Some idx -> Btree.remove idx mem.Message.m_key (fun r -> r = rid)
      | None -> ())
    memberships

let cache t (m : Message.t) = Rid_table.set t.cache m.Message.rid m

let of_store_cached t (sm : Store.message) =
  let m =
    match Rid_table.find_opt t.cache sm.rid with
    | Some m -> m
    | None ->
      let m = Message.of_store t.store sm in
      Rid_table.set t.cache sm.rid m;
      m
  in
  (* [processed] may have changed since the cache entry was created. *)
  if m.Message.processed = sm.processed then m
  else begin
    let m = { m with Message.processed = sm.processed } in
    Rid_table.set t.cache sm.rid m;
    m
  end

let get t rid =
  Option.map (of_store_cached t) (Store.get t.store rid)

let cache_size t = Rid_table.length t.cache

let queue_messages t queue =
  List.rev
    (Store.fold_queue t.store queue (fun acc sm -> of_store_cached t sm :: acc) [])

let queue_length t queue = Store.queue_length t.store queue

let unprocessed t = List.map (of_store_cached t) (Store.unprocessed t.store)

(* ---- slices ---- *)

let current t (mem : Message.membership) =
  mem.Message.m_lifetime
  = Store.slice_lifetime t.store ~slicing:mem.Message.m_slicing ~key:mem.Message.m_key

let membership_current t (_ : Message.t) mem = current t mem

let message_in_slice t slicing key (m : Message.t) =
  List.exists
    (fun mem ->
      mem.Message.m_slicing = slicing
      && mem.Message.m_key = key
      && membership_current t m mem)
    m.Message.memberships

let slice_messages t ?(use_index = true) ~slicing ~key () =
  if use_index then
    let idx = index_for t slicing in
    let rids = Btree.find idx key in
    List.filter
      (fun m -> message_in_slice t slicing key m)
      (List.filter_map (get t) (List.sort_uniq compare rids))
  else begin
    (* Scan baseline (§4.3: merging the slice definition into the rule):
       walk every queue on which the slicing's property is defined. *)
    match find_slicing t slicing with
    | None -> []
    | Some sdef ->
      let queues =
        List.concat_map
          (fun p ->
            if p.Defs.pname = sdef.Defs.slice_property then Defs.property_queues p
            else [])
          t.properties
      in
      List.concat_map
        (fun q ->
          List.filter (message_in_slice t slicing key) (queue_messages t q))
        (List.sort_uniq compare queues)
  end

let slice_keys t ~slicing =
  let idx = index_for t slicing in
  let keys = ref [] in
  Btree.iter idx (fun k _ -> keys := k :: !keys);
  List.rev !keys

(* ---- property computation (§2.2) ---- *)

let eval_property_expr t pname expr body =
  let env = Demaq_xquery.Context.make () in
  let env =
    { env with Context.item = Some (Value.Node (Eval.node_of_tree (Lazy.force body))) }
  in
  ignore t;
  match Eval.eval env expr with
  | [] -> None
  | item :: _ -> Some (Value.atomize_item item)
  | exception Context.Eval_error reason ->
    raise (Queue_error (Property_error { property = pname; reason }))

let cast_property pname ptype a =
  match Value.cast ptype a with
  | Ok a -> a
  | Error reason -> raise (Queue_error (Property_error { property = pname; reason }))

let compute_properties t ~rule ~trigger ~explicit ~queue ~body =
  let defined = ref [] in
  (* Declared properties, in declaration order. *)
  List.iter
    (fun (p : Defs.property_def) ->
      if List.mem queue (Defs.property_queues p) then begin
        let explicit_value = List.assoc_opt p.pname explicit in
        (match p.disposition, explicit_value with
         | Defs.Fixed, Some _ ->
           raise (Queue_error (Fixed_property_set { property = p.pname }))
         | _ -> ());
        let inherited_value =
          match p.disposition, trigger with
          | Defs.Inherited, Some trig -> Message.property trig p.pname
          | _ -> None
        in
        let value =
          match explicit_value, inherited_value with
          | Some v, _ -> Some v
          | None, Some v -> Some v
          | None, None -> (
            match Defs.property_expr_for p queue with
            | Some expr -> eval_property_expr t p.pname expr body
            | None -> None)
        in
        match value with
        | Some v -> defined := (p.pname, cast_property p.pname p.ptype v) :: !defined
        | None -> ()
      end)
    t.properties;
  let declared_names = List.map fst !defined in
  (* Undeclared explicit properties ride along untyped (used for e.g.
     gateway addressing and echo timeouts). *)
  let extra_explicit =
    List.filter (fun (n, _) -> not (List.mem n declared_names)) explicit
  in
  (* System properties (§2.2). *)
  let system =
    List.concat
      [
        (match rule with Some r -> [ (Defs.Sysprop.rule, Value.String r) ] | None -> []);
        [ (Defs.Sysprop.timestamp, Value.Integer (t.clock ())) ];
        (* Connection handles propagate automatically with messages. *)
        (match trigger with
         | Some trig -> (
           match Message.property trig Defs.Sysprop.connection with
           | Some v when not (List.mem_assoc Defs.Sysprop.connection explicit) ->
             [ (Defs.Sysprop.connection, v) ]
           | _ -> [])
         | None -> []);
      ]
  in
  let system =
    List.filter (fun (n, _) -> not (List.mem_assoc n extra_explicit)) system
  in
  List.rev !defined @ extra_explicit @ system

(* ---- enqueue ---- *)

let memberships_of t props =
  List.filter_map
    (fun (s : Defs.slicing_def) ->
      match List.assoc_opt s.slice_property props with
      | None -> None
      | Some v ->
        let key = Message.key_string v in
        Some
          {
            Message.m_slicing = s.sname;
            m_key = key;
            m_lifetime = Store.slice_lifetime t.store ~slicing:s.sname ~key;
          })
    t.slicings

type payload = Tree of Tree.tree | Bxml of { bytes : string; tree : Tree.tree Lazy.t }

let bxml bytes = Bxml { bytes; tree = lazy (Demaq_xml.Bxml.decode bytes) }

let admit t txn ?rule ?trigger ?(provenance = Message.no_provenance)
    ?(explicit = []) ~queue ~payload () =
  match find_queue t queue with
  | None -> Error (Unknown_queue queue)
  | Some qdef -> (
    (* bXML bytes are decoded only if a schema check or a property
       expression reads the tree; the message keeps the decode *)
    let body =
      match payload with
      | Tree tree -> Lazy.from_val tree
      | Bxml { tree; _ } -> tree
    in
    match
      (match qdef.schema with
       | Some schema ->
         (* The queue schema also restricts the message root to a declared
            element: an entirely undeclared document does not "conform to
            the schema" (§2.1.1). *)
         Schema.root_allowed schema (Schema.declared_names schema) (Lazy.force body)
       | None -> Ok ())
    with
    | Error reason -> Error (Schema_violation { queue; reason })
    | Ok () -> (
      match compute_properties t ~rule ~trigger ~explicit ~queue ~body with
      | exception Queue_error e -> Error e
      | props ->
        let memberships = memberships_of t props in
        let serialized =
          match payload with
          | Tree tree -> Demaq_xml.Bxml.encode tree
          | Bxml { bytes; _ } -> bytes
        in
        let extra = Message.encode_extra ~provenance ~props ~memberships () in
        let enqueued_at =
          match List.assoc_opt Defs.Sysprop.timestamp props with
          | Some (Value.Integer tick) -> tick
          | _ -> t.clock ()
        in
        let durable = qdef.mode = Defs.Persistent in
        let rid =
          Store.insert
            ~on_undo:(fun rid -> forget t rid memberships)
            txn ~queue ~payload:serialized ~extra ~enqueued_at ~durable
        in
        List.iter
          (fun mem ->
            Btree.add (index_for t mem.Message.m_slicing) mem.Message.m_key rid)
          memberships;
        let m =
          {
            Message.rid;
            queue;
            raw = Lazy.from_val serialized;
            body;
            doc = lazy (Tree.root_node (Tree.doc (Lazy.force body)));
            props;
            memberships;
            prov = provenance;
            enqueued_at;
            processed = false;
          }
        in
        Ok (qdef, m)))

let enqueue t txn ?rule ?trigger ?provenance ?explicit ~queue ~payload () =
  match admit t txn ?rule ?trigger ?provenance ?explicit ~queue ~payload:(Tree payload) () with
  | Ok (_, m) ->
    cache t m;
    Ok m
  | Error _ as e -> e

(* ---- updates ---- *)

let mark_processed _t txn (m : Message.t) = Store.mark_processed txn m.Message.rid

let reset_slice _t txn ~slicing ~key = Store.slice_reset txn ~slicing ~key

(* ---- retention GC (§2.3.3) ---- *)

let in_no_current_slice t memberships =
  List.for_all (fun mem -> not (current t mem)) memberships

let deletable t (m : Message.t) =
  m.Message.processed && in_no_current_slice t m.Message.memberships

(* The record's (rid, memberships) when the GC may collect it, judged
   from the record alone: the store's [processed] flag, then the blob's
   memberships, so no [Message.t] is built for an uncached message. *)
let candidate t (sm : Store.message) =
  if not sm.processed then None
  else
    let memberships = Message.memberships_of_extra sm.extra in
    if in_no_current_slice t memberships then Some (sm.rid, memberships) else None

(* Tombstone a batch of deletable messages in one transaction, evicting
   their cache entries and index postings. Returns the reclaimed rids. *)
let delete_batch t doomed =
  if doomed = [] then []
  else begin
    let txn = Store.begin_txn t.store in
    List.iter
      (fun (rid, memberships) ->
        Store.delete txn rid;
        forget t rid memberships)
      doomed;
    Store.commit txn;
    List.map fst doomed
  end

let gc_collect t =
  delete_batch t
    (List.rev
       (Store.fold_messages t.store
          (fun acc sm -> match candidate t sm with Some d -> d :: acc | None -> acc)
          []))

let gc t = List.length (gc_collect t)

(* Incremental GC: examine at most [budget] live messages per call,
   walking the rid range from a cursor. The budget bounds both the walk and
   the expensive part — reading each candidate's memberships and checking
   them for currency — so a maintenance tick costs O(budget) (plus
   the tombstones and dropped rids it steps over), not O(store). A short
   window (the walk reached the end of the range) ends the sweep and wraps
   the cursor to the lowest rid still present, never to 0: compaction
   drops long runs of low rids, and rescanning them on every wrap would
   cost O(rids ever allocated). *)
let gc_step t ~budget =
  if budget <= 0 then []
  else begin
    let limit = Store.next_rid t.store in
    let rec walk acc n rid =
      if n = budget then (acc, rid)
      else if rid >= limit then (acc, Store.low_rid t.store)
      else
        match Store.get t.store rid with
        | Some sm ->
          let acc = match candidate t sm with Some d -> d :: acc | None -> acc in
          walk acc (n + 1) (rid + 1)
        | None -> walk acc n (rid + 1)
    in
    let doomed, cursor = walk [] 0 (max t.gc_cursor (Store.low_rid t.store)) in
    t.gc_cursor <- cursor;
    delete_batch t (List.rev doomed)
  end

let gc_cursor t = t.gc_cursor

let rebuild_indexes t =
  Hashtbl.iter (fun _ idx -> Btree.clear idx) t.indexes;
  Store.fold_messages t.store
    (fun () (sm : Store.message) ->
      List.iter
        (fun mem ->
          Btree.add (index_for t mem.Message.m_slicing) mem.Message.m_key sm.rid)
        (Message.memberships_of_extra sm.extra))
    ()

let create ?clock store =
  let clock = match clock with Some c -> c | None -> default_clock () in
  let t =
    {
      store;
      queues = Hashtbl.create 16;
      echo_queues = [];
      properties = [];
      slicings = [];
      indexes = Hashtbl.create 8;
      collections = Hashtbl.create 8;
      cache = Rid_table.create ~dummy:no_message;
      clock;
      gc_cursor = 0;
    }
  in
  rebuild_indexes t;
  t
