(* Tests for the BPEL-style instance-context baseline engine (benchmark B4's
   comparison system, §2.1 of the paper). *)

module Tree = Demaq.Xml.Tree
module Ctx = Demaq_baselines.Context_engine

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let correlate msg =
  match Tree.find_child msg "key" with
  | Some k -> Tree.tree_string_value k
  | None -> "default"

(* A step that counts deliveries per instance inside the context document
   and replies with the running count. *)
let counting_step ~context ~msg =
  ignore msg;
  let count =
    match Tree.find_child context "count" with
    | Some c -> int_of_string (Tree.tree_string_value c)
    | None -> 0
  in
  let count = count + 1 in
  let context' = Tree.elem "context" [ Tree.elem "count" [ Tree.text (string_of_int count) ] ] in
  (context', [ Tree.elem "seen" [ Tree.text (string_of_int count) ] ])

let msg k = Tree.elem "m" [ Tree.elem "key" [ Tree.text k ] ]

let test_correlation () =
  let e = Ctx.create ~correlate ~step:counting_step () in
  let out1 = Ctx.deliver e (msg "a") in
  let out2 = Ctx.deliver e (msg "a") in
  let out3 = Ctx.deliver e (msg "b") in
  check string_ "a first" "1" (Tree.tree_string_value (List.hd out1));
  check string_ "a second accumulates" "2" (Tree.tree_string_value (List.hd out2));
  check string_ "b independent" "1" (Tree.tree_string_value (List.hd out3));
  check int_ "two instances" 2 (Ctx.instance_count e)

let test_dehydration_costs_counted () =
  let e = Ctx.create ~dehydrate:true ~correlate ~step:counting_step () in
  ignore (Ctx.deliver e (msg "a"));
  ignore (Ctx.deliver e (msg "a"));
  let s = Ctx.stats e in
  check int_ "deliveries" 2 s.Ctx.deliveries;
  (* first delivery finds no stored context; the second rehydrates *)
  check int_ "rehydrations" 1 s.Ctx.rehydrations;
  check bool_ "serialization bytes counted" true (s.Ctx.dehydrated_bytes > 0)

let test_live_mode_no_serialization () =
  let e = Ctx.create ~dehydrate:false ~correlate ~step:counting_step () in
  ignore (Ctx.deliver e (msg "a"));
  ignore (Ctx.deliver e (msg "a"));
  let s = Ctx.stats e in
  check int_ "no rehydrations" 0 s.Ctx.rehydrations;
  check int_ "no bytes" 0 s.Ctx.dehydrated_bytes;
  check string_ "state accumulates in memory" "3"
    (Tree.tree_string_value (List.hd (Ctx.deliver e (msg "a"))))

let test_modes_agree () =
  let run dehydrate =
    let e = Ctx.create ~dehydrate ~correlate ~step:counting_step () in
    List.concat_map
      (fun k -> List.map Tree.tree_string_value (Ctx.deliver e (msg k)))
      [ "a"; "b"; "a"; "a"; "b" ]
  in
  check bool_ "dehydrated = live outputs" true (run true = run false)

let test_custom_initial_context () =
  let initial = Tree.elem "context" [ Tree.elem "count" [ Tree.text "10" ] ] in
  let e = Ctx.create ~initial ~correlate ~step:counting_step () in
  check string_ "starts from initial" "11"
    (Tree.tree_string_value (List.hd (Ctx.deliver e (msg "z"))))

let suite =
  [
    ("correlation creates instances", `Quick, test_correlation);
    ("dehydration costs counted", `Quick, test_dehydration_costs_counted);
    ("live mode avoids serialization", `Quick, test_live_mode_no_serialization);
    ("modes agree on behaviour", `Quick, test_modes_agree);
    ("custom initial context", `Quick, test_custom_initial_context);
  ]
