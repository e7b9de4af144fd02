(* Tests for the rid-indexed table behind the store's messages and the
   queue manager's decoded-message cache. *)

module Rid_table = Demaq.Store.Rid_table

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int

type op =
  | Set of int
  | Remove of int
  | Abort of int  (* an insert undone at once: a hole in the rid range *)
  | Get of int

(* Rids cluster around a few far-apart bases, so one case opens pages
   below the current window (replay order), far above it, and empties
   them again. *)
let gen_rid =
  QCheck.Gen.(
    map2
      (fun base off -> base + off)
      (oneofl [ 0; 1_000; 5_000; 70_000; 1_000_000 ])
      (int_bound 2_500))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun r -> Set r) gen_rid);
        (3, map (fun r -> Remove r) gen_rid);
        (1, map (fun r -> Abort r) gen_rid);
        (2, map (fun r -> Get r) gen_rid);
      ])

let print_op = function
  | Set r -> Printf.sprintf "set %d" r
  | Remove r -> Printf.sprintf "remove %d" r
  | Abort r -> Printf.sprintf "abort %d" r
  | Get r -> Printf.sprintf "get %d" r

let sorted_bindings model =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])

let agrees t model =
  let bindings = sorted_bindings model in
  let pages =
    List.sort_uniq compare (List.map (fun (r, _) -> r / Rid_table.page_size) bindings)
  in
  Rid_table.length t = Hashtbl.length model
  && Rid_table.pages t = List.length pages
  && List.rev (Rid_table.fold (fun r v acc -> (r, v) :: acc) t []) = bindings
  && (let seen = ref [] in
      Rid_table.iter (fun r v -> seen := (r, v) :: !seen) t;
      List.rev !seen = bindings)
  && Rid_table.lowest t = (match bindings with (r, _) :: _ -> Some r | [] -> None)

let prop_model =
  QCheck.Test.make ~name:"rid table agrees with a Hashtbl model" ~count:300
    ~long_factor:20
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 1 200) gen_op))
    (fun ops ->
      let t = Rid_table.create ~dummy:(ref (-1)) in
      let model = Hashtbl.create 64 in
      let step i op =
        (match op with
         | Set r ->
           let v = ref i in
           Rid_table.set t r v;
           Hashtbl.replace model r v
         | Remove r ->
           Rid_table.remove t r;
           Hashtbl.remove model r
         | Abort r ->
           if not (Hashtbl.mem model r) then begin
             Rid_table.set t r (ref i);
             Rid_table.remove t r
           end
         | Get r ->
           if not (Option.equal ( == ) (Rid_table.find_opt t r) (Hashtbl.find_opt model r))
           then QCheck.Test.fail_reportf "get %d disagrees" r);
        let r = match op with Set r | Remove r | Abort r | Get r -> r in
        Rid_table.mem t r = Hashtbl.mem model r && agrees t model
      in
      List.for_all Fun.id (List.mapi step ops))

(* One message that is never collected (a member of a slice that is
   never reset) must not make the table grow with every rid allocated
   after it: the pages held stay those of the live entries. *)
let test_pages_bounded () =
  let t = Rid_table.create ~dummy:"" in
  Rid_table.set t 1 "pinned";
  let max_pages = ref 0 in
  let batch = 100 in
  let rid = ref 2 in
  while !rid < 100_002 do
    for r = !rid to !rid + batch - 1 do
      Rid_table.set t r "m"
    done;
    max_pages := max !max_pages (Rid_table.pages t);
    for r = !rid to !rid + batch - 1 do
      Rid_table.remove t r
    done;
    rid := !rid + batch
  done;
  check int_ "only the pinned entry is left" 1 (Rid_table.length t);
  check int_ "one page held at the end" 1 (Rid_table.pages t);
  check bool_ "at most three pages held at any time" true (!max_pages <= 3);
  check bool_ "the pinned entry survives" true (Rid_table.find_opt t 1 = Some "pinned");
  check bool_ "lowest is the pinned rid" true (Rid_table.lowest t = Some 1)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_model;
    ("pages stay bounded behind one long-lived rid", `Quick, test_pages_bounded);
  ]
