(* Tests for the lock manager (compatibility, upgrades, deadlock
   detection) and for the dispatcher (conflict partitioning, priority then
   arrival order). *)

module Lock = Demaq_baselines.Lock_manager

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

let q = Lock.Queue_lock "q"
let s1 = Lock.Slice_lock ("orders", "k1")
let s2 = Lock.Slice_lock ("orders", "k2")

let granted = function Lock.Granted -> true | Lock.Conflict _ -> false

let test_shared_compatible () =
  let t = Lock.create () in
  check bool_ "t1 S" true (granted (Lock.acquire t ~txn:1 q Lock.Shared));
  check bool_ "t2 S" true (granted (Lock.acquire t ~txn:2 q Lock.Shared));
  match Lock.acquire t ~txn:3 q Lock.Exclusive with
  | Lock.Conflict holders ->
    check bool_ "both holders reported" true
      (List.sort compare holders = [ 1; 2 ])
  | Lock.Granted -> Alcotest.fail "X granted over S holders"

let test_exclusive_blocks () =
  let t = Lock.create () in
  check bool_ "t1 X" true (granted (Lock.acquire t ~txn:1 q Lock.Exclusive));
  check bool_ "t2 S conflicts" false (granted (Lock.acquire t ~txn:2 q Lock.Shared));
  check bool_ "t2 X conflicts" false (granted (Lock.acquire t ~txn:2 q Lock.Exclusive))

let test_reentrant_and_upgrade () =
  let t = Lock.create () in
  check bool_ "S" true (granted (Lock.acquire t ~txn:1 q Lock.Shared));
  check bool_ "re-acquire S" true (granted (Lock.acquire t ~txn:1 q Lock.Shared));
  check bool_ "upgrade to X" true (granted (Lock.acquire t ~txn:1 q Lock.Exclusive));
  check bool_ "other blocked" false (granted (Lock.acquire t ~txn:2 q Lock.Shared));
  (* after upgrade, re-acquiring S must not silently downgrade *)
  check bool_ "S after X" true (granted (Lock.acquire t ~txn:1 q Lock.Shared));
  check bool_ "other still blocked" false (granted (Lock.acquire t ~txn:2 q Lock.Shared))

let test_upgrade_blocked_by_other_reader () =
  let t = Lock.create () in
  ignore (Lock.acquire t ~txn:1 q Lock.Shared);
  ignore (Lock.acquire t ~txn:2 q Lock.Shared);
  check bool_ "upgrade blocked" false (granted (Lock.acquire t ~txn:1 q Lock.Exclusive))

let test_release_all () =
  let t = Lock.create () in
  ignore (Lock.acquire t ~txn:1 q Lock.Exclusive);
  ignore (Lock.acquire t ~txn:1 s1 Lock.Exclusive);
  check int_ "held" 2 (List.length (Lock.held t ~txn:1));
  Lock.release_all t ~txn:1;
  check int_ "released" 0 (List.length (Lock.held t ~txn:1));
  check bool_ "free" true (granted (Lock.acquire t ~txn:2 q Lock.Exclusive));
  check int_ "table compacted" 1 (Lock.active_locks t)

let test_slice_independence () =
  (* §4.3: slice locks do not conflict across different keys. *)
  let t = Lock.create () in
  check bool_ "t1 slice k1" true (granted (Lock.acquire t ~txn:1 s1 Lock.Exclusive));
  check bool_ "t2 slice k2" true (granted (Lock.acquire t ~txn:2 s2 Lock.Exclusive));
  check bool_ "t2 slice k1 conflicts" false (granted (Lock.acquire t ~txn:2 s1 Lock.Exclusive))

let test_deadlock_detection () =
  let t = Lock.create () in
  ignore (Lock.acquire t ~txn:1 s1 Lock.Exclusive);
  ignore (Lock.acquire t ~txn:2 s2 Lock.Exclusive);
  (* txn 1 waits for s2 (held by 2) *)
  Lock.wait_on t ~txn:1 s2;
  (* if txn 2 now waited for s1 (held by 1) we'd have a cycle *)
  check bool_ "cycle detected" true (Lock.would_deadlock t ~txn:2 s1);
  (* no cycle for an independent transaction *)
  check bool_ "no cycle for t3" false (Lock.would_deadlock t ~txn:3 s1);
  Lock.stop_waiting t ~txn:1;
  check bool_ "cycle gone after stop_waiting" false (Lock.would_deadlock t ~txn:2 s1)

let test_deadlock_three_party () =
  let t = Lock.create () in
  let r1 = Lock.Queue_lock "a"
  and r2 = Lock.Queue_lock "b"
  and r3 = Lock.Queue_lock "c" in
  ignore (Lock.acquire t ~txn:1 r1 Lock.Exclusive);
  ignore (Lock.acquire t ~txn:2 r2 Lock.Exclusive);
  ignore (Lock.acquire t ~txn:3 r3 Lock.Exclusive);
  Lock.wait_on t ~txn:1 r2;
  Lock.wait_on t ~txn:2 r3;
  check bool_ "3-cycle detected" true (Lock.would_deadlock t ~txn:3 r1)

let test_resource_names () =
  check bool_ "queue" true (Lock.resource_to_string q = "queue:q");
  check bool_ "slice" true (Lock.resource_to_string s1 = "slice:orders/k1");
  check bool_ "message" true
    (Lock.resource_to_string (Lock.Message_lock 7) = "message:7")

(* ---- qcheck: holder bookkeeping under arbitrary interleavings ----

   A pure model of the manager's contract: per resource, the holder list
   with Shared/Shared the only compatible pair and upgrades keeping the
   stronger mode. Arbitrary sequences of acquire/upgrade/release across
   four transactions are replayed against both; after every operation the
   real manager must agree with the model — no holder entry lost or
   duplicated, the compatibility matrix never violated, conflicts
   reporting exactly the incompatible holders. *)

let prop_resources = [| q; s1; s2; Lock.Message_lock 7 |]

let compatible m1 m2 =
  match m1, m2 with Lock.Shared, Lock.Shared -> true | _ -> false

let model_acquire model ~txn res mode =
  let holders = Option.value ~default:[] (Hashtbl.find_opt model res) in
  let others = List.filter (fun (id, _) -> id <> txn) holders in
  let mine = List.filter (fun (id, _) -> id = txn) holders in
  let incompat = List.filter (fun (_, m) -> not (compatible mode m)) others in
  if incompat <> [] then Lock.Conflict (List.map fst incompat)
  else begin
    let merged =
      match mine with (_, Lock.Exclusive) :: _ -> Lock.Exclusive | _ -> mode
    in
    Hashtbl.replace model res ((txn, merged) :: others);
    Lock.Granted
  end

let model_release model ~txn =
  Hashtbl.iter
    (fun res holders ->
      Hashtbl.replace model res (List.filter (fun (id, _) -> id <> txn) holders))
    (Hashtbl.copy model);
  Hashtbl.iter
    (fun res holders -> if holders = [] then Hashtbl.remove model res)
    (Hashtbl.copy model)

let model_held model ~txn =
  Hashtbl.fold
    (fun res holders acc ->
      match List.find_opt (fun (id, _) -> id = txn) holders with
      | Some (_, m) -> (res, m) :: acc
      | None -> acc)
    model []

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (frequency
         [
           ( 4,
             map3
               (fun txn r x ->
                 `Acquire (txn, r, if x then Lock.Exclusive else Lock.Shared))
               (int_range 1 4)
               (int_range 0 (Array.length prop_resources - 1))
               bool );
           (1, map (fun txn -> `Release txn) (int_range 1 4));
         ]))

let same_outcome a b =
  match a, b with
  | Lock.Granted, Lock.Granted -> true
  | Lock.Conflict xs, Lock.Conflict ys ->
    List.sort_uniq compare xs = List.sort_uniq compare ys
  | _ -> false

let check_agreement t model =
  (* no holder lost or duplicated: per txn, held = model held, dup-free *)
  List.for_all
    (fun txn ->
      let real = List.sort compare (Lock.held t ~txn) in
      let modeled = List.sort compare (model_held model ~txn) in
      let dedup = List.sort_uniq compare real in
      real = modeled && real = dedup)
    [ 1; 2; 3; 4 ]
  && (* the two-mode matrix: an exclusive holder is always alone *)
  Hashtbl.fold
    (fun _ holders ok ->
      ok
      && (not (List.exists (fun (_, m) -> m = Lock.Exclusive) holders)
          || List.length holders <= 1))
    model true
  && Lock.active_locks t = Hashtbl.length model

let prop_holders =
  QCheck.Test.make ~name:"no holder lost or duplicated; matrix holds" ~count:300
    (QCheck.make gen_ops ~print:(fun ops ->
         String.concat "; "
           (List.map
              (function
                | `Acquire (txn, r, m) ->
                  Printf.sprintf "acquire t%d %s %s" txn
                    (Lock.resource_to_string prop_resources.(r))
                    (match m with Lock.Exclusive -> "X" | Lock.Shared -> "S")
                | `Release txn -> Printf.sprintf "release t%d" txn)
              ops)))
    (fun ops ->
      let t = Lock.create () in
      let model = Hashtbl.create 8 in
      List.for_all
        (fun op ->
          (match op with
           | `Acquire (txn, r, mode) ->
             let res = prop_resources.(r) in
             let real = Lock.acquire t ~txn res mode in
             let modeled = model_acquire model ~txn res mode in
             same_outcome real modeled
           | `Release txn ->
             Lock.release_all t ~txn;
             model_release model ~txn;
             true)
          && check_agreement t model)
        ops)

(* Domain-safety smoke: four domains hammer overlapping resources with
   exclusive acquire/release cycles; afterwards nothing may be leaked and
   a fresh transaction must see every resource free. *)
let test_concurrent_stress () =
  let t = Lock.create () in
  let worker txn =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| txn |] in
        for _ = 1 to 500 do
          let res = prop_resources.(Random.State.int rng (Array.length prop_resources)) in
          (match Lock.acquire t ~txn res Lock.Exclusive with
           | Lock.Granted -> Lock.release_all t ~txn
           | Lock.Conflict _ -> ())
        done;
        Lock.release_all t ~txn)
  in
  let doms = List.map worker [ 1; 2; 3; 4 ] in
  List.iter Domain.join doms;
  check int_ "no leaked locks" 0 (Lock.active_locks t);
  Array.iter
    (fun res ->
      check bool_ "free after stress" true
        (granted (Lock.acquire t ~txn:9 res Lock.Exclusive)))
    prop_resources

(* ---- footprint dispatch: conflicting messages never run together ----

   The dispatcher is what keeps footprint-driven dispatch safe: two rids
   whose conflict resource sets overlap must never both be in flight.
   Pinned regression first, then a qcheck model over arbitrary
   schedule/next/complete interleavings with footprint-style resource
   sets (queue and slice strings, including the empty set), and last the
   scheduling order itself (§4.4.2). *)

module Dispatch = Demaq.Engine.Dispatch

(* The dispatcher's slots by rid, handing entries back by rid. *)
type slot = Ready of int | Busy | Empty

let next handed d =
  match Dispatch.next d with
  | Dispatch.Ready e ->
    Hashtbl.replace handed e.Dispatch.rid e;
    Ready e.Dispatch.rid
  | Dispatch.Busy -> Busy
  | Dispatch.Empty -> Empty

let complete handed d rid = Dispatch.complete d (Hashtbl.find handed rid)

let test_dispatch_footprint_disjoint () =
  let d = Dispatch.create () in
  let handed = Hashtbl.create 4 in
  let next = next handed and complete = complete handed in
  (* rids 1 and 3 write queue o1; rid 2 only writes o2 *)
  Dispatch.schedule d ~priority:0 ~resources:[ "q:o1" ] ~stamp:(-1) 1;
  Dispatch.schedule d ~priority:0 ~resources:[ "q:o2" ] ~stamp:(-1) 2;
  Dispatch.schedule d ~priority:0 ~resources:[ "q:o1"; "q:o2" ] ~stamp:(-1) 3;
  check bool_ "first out" true (next d = Ready 1);
  (* disjoint footprint: runs alongside rid 1 *)
  check bool_ "disjoint runs concurrently" true (next d = Ready 2);
  (* rid 3 overlaps both running rids: parked, not handed out *)
  check bool_ "conflicting parked" true (next d = Busy);
  complete d 1;
  check bool_ "still blocked on rid 2" true (next d = Busy);
  complete d 2;
  check bool_ "revived once both free" true (next d = Ready 3);
  complete d 3;
  check bool_ "drained" true (next d = Empty)

let fp_resources = [| "q:a"; "q:b"; "s:sl/k1"; "s:sl/k2" |]

let fp_subset mask =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list fp_resources)

let gen_dispatch_ops =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (frequency
         [
           ( 3,
             map2 (fun mask prio -> `Schedule (mask land 15, prio)) (int_range 0 15)
               (int_range 0 2) );
           (3, return `Next);
           (2, map (fun k -> `Complete k) (int_range 0 3));
         ]))

let print_dispatch_ops ops =
  String.concat "; "
    (List.map
       (function
         | `Schedule (mask, prio) ->
           Printf.sprintf "schedule p%d {%s}" prio (String.concat "," (fp_subset mask))
         | `Next -> "next"
         | `Complete k -> Printf.sprintf "complete #%d" k)
       ops)

let disjoint a b = not (List.exists (fun r -> List.mem r b) a)

let prop_scheduler_order =
  (* higher priority first; FIFO within a priority *)
  QCheck.Test.make ~name:"scheduler: priority then arrival order" ~count:200
    QCheck.(list (pair (int_bound 3) small_nat))
    (fun entries ->
      let d = Dispatch.create () in
      List.iteri
        (fun i (prio, _) -> Dispatch.schedule d ~priority:prio ~resources:[] ~stamp:(-1) i)
        entries;
      let rec drain acc =
        match Dispatch.next d with
        | Dispatch.Ready e ->
          Dispatch.complete d e;
          drain (e.Dispatch.rid :: acc)
        | Dispatch.Busy -> failwith "Busy with nothing in flight"
        | Dispatch.Empty -> List.rev acc
      in
      let order = drain [] in
      (* reference: stable sort of indices by descending priority *)
      let expected =
        List.map snd
          (List.stable_sort
             (fun (p1, _) (p2, _) -> compare p2 p1)
             (List.mapi (fun i (prio, _) -> (prio, i)) entries))
      in
      order = expected)

let prop_dispatch_disjoint =
  QCheck.Test.make
    ~name:"dispatcher never runs overlapping footprints concurrently" ~count:300
    ~long_factor:20
    (QCheck.make gen_dispatch_ops ~print:print_dispatch_ops)
    (fun ops ->
      let d = Dispatch.create () in
      let resources_of = Hashtbl.create 16 in
      let running = ref [] in
      let scheduled = ref 0 and finished = ref 0 in
      let next_rid = ref 0 in
      let take () =
        match Dispatch.next d with
        | Dispatch.Ready e ->
          let rid = e.Dispatch.rid in
          let res = Hashtbl.find resources_of rid in
          (* the entry hands back the resources and stamp it was
             scheduled with *)
          if e.Dispatch.resources <> res || e.Dispatch.stamp <> rid then
            failwith (Printf.sprintf "rid %d handed out with other resources" rid);
          (* the invariant: a handed-out rid conflicts with nothing in flight *)
          if not (List.for_all (fun (_, r) -> disjoint res r.Dispatch.resources) !running)
          then
            failwith
              (Printf.sprintf "rid %d dispatched over a conflicting in-flight rid" rid);
          running := (rid, e) :: !running;
          true
        | Dispatch.Busy ->
          if !running = [] then failwith "Busy with nothing in flight";
          false
        | Dispatch.Empty -> false
      in
      List.iter
        (function
          | `Schedule (mask, prio) ->
            incr next_rid;
            let rid = !next_rid in
            Hashtbl.replace resources_of rid (fp_subset mask);
            Dispatch.schedule d ~priority:prio ~resources:(fp_subset mask) ~stamp:rid
              rid;
            incr scheduled
          | `Next -> ignore (take ())
          | `Complete k ->
            (match !running with
             | [] -> ()
             | l ->
               let rid, e = List.nth l (k mod List.length l) in
               Dispatch.complete d e;
               running := List.filter (fun (r, _) -> r <> rid) l;
               incr finished))
        ops;
      (* drain: everything scheduled must eventually be handed out exactly
         once — parked entries revive as their conflicts clear *)
      let guard = ref 0 in
      while
        incr guard;
        if !guard > 10_000 then failwith "drain did not terminate";
        (match !running with
         | (_, e) :: rest ->
           Dispatch.complete d e;
           running := rest;
           incr finished
         | [] -> ());
        take () || !running <> []
      do
        ()
      done;
      !finished = !scheduled && Dispatch.pending d = 0)

let suite =
  [
    ("shared locks compatible", `Quick, test_shared_compatible);
    ("exclusive blocks", `Quick, test_exclusive_blocks);
    ("re-entrant and upgrade", `Quick, test_reentrant_and_upgrade);
    ("upgrade blocked by other reader", `Quick, test_upgrade_blocked_by_other_reader);
    ("release all", `Quick, test_release_all);
    ("slice lock independence", `Quick, test_slice_independence);
    ("deadlock detection", `Quick, test_deadlock_detection);
    ("three-party deadlock", `Quick, test_deadlock_three_party);
    ("resource names", `Quick, test_resource_names);
    QCheck_alcotest.to_alcotest prop_holders;
    ("concurrent stress", `Quick, test_concurrent_stress);
    ("dispatcher: footprint disjointness (pinned)", `Quick,
     test_dispatch_footprint_disjoint);
    QCheck_alcotest.to_alcotest prop_dispatch_disjoint;
    QCheck_alcotest.to_alcotest prop_scheduler_order;
  ]
