(* Pending update primitives (XQuery Update Facility style, extended with
   the Demaq queue primitives). Rule evaluation produces a list of these;
   nothing is applied until the whole rule set has been evaluated, which
   gives the snapshot semantics of §3.1. *)

type t =
  | Enqueue of {
      payload : string;  (* bXML bytes *)
      queue : string;
      props : (string * Value.atomic) list;
    }
  | Reset of { slicing : string option; key : Value.atomic option }

let pp fmt = function
  | Enqueue { payload; queue; props } ->
    Format.fprintf fmt "enqueue %a into %s" Demaq_xml.Tree.pp_tree
      (Demaq_xml.Bxml.decode payload) queue;
    List.iter
      (fun (k, v) ->
        Format.fprintf fmt " with %s value %s" k (Value.string_of_atomic v))
      props
  | Reset { slicing = None; _ } -> Format.fprintf fmt "reset"
  | Reset { slicing = Some s; key } ->
    Format.fprintf fmt "reset slicing %s key %s" s
      (match key with Some k -> Value.string_of_atomic k | None -> "?")
