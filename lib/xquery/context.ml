(* Dynamic evaluation context.

   The [host] record is how the engine exposes the qs: function library
   (§3.4/§3.5) without making the XQuery library depend on the queue
   subsystem: the engine installs closures over its store when it
   evaluates a rule. *)

module Smap = Map.Make (String)

exception Eval_error of string

let eval_error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

type host = {
  h_queue : string option -> Value.t;
      (* [qs:queue()] / [qs:queue("name")]: document nodes of all messages *)
  h_message : unit -> Value.t;  (* [qs:message()] *)
  h_property : string -> Value.t;  (* [qs:property("name")] *)
  h_slice : unit -> Value.t;  (* [qs:slice()], slicing rules only *)
  h_slicekey : unit -> Value.t;  (* [qs:slicekey()], slicing rules only *)
  h_collection : string -> Value.t;  (* [fn:collection("name")]: master data *)
  h_now : unit -> int;  (* virtual-clock tick for fn:current-dateTime *)
}

let null_host =
  let no name _ = eval_error "%s is not available in this context" name in
  {
    h_queue = no "qs:queue";
    h_message = no "qs:message";
    h_property = no "qs:property";
    h_slice = no "qs:slice";
    h_slicekey = no "qs:slicekey";
    h_collection = no "fn:collection";
    h_now = (fun () -> 0);
  }

type env = {
  item : Value.item option;  (* context item, if any *)
  pos : int;  (* fn:position() *)
  size : int;  (* fn:last() *)
  vars : Value.t Smap.t;
  slots : Value.t array;  (* plan bindings, by index *)
  host : host;
  updates : Update.t list ref;  (* pending update accumulator *)
}

let make ?(host = null_host) ?item () =
  { item; pos = 1; size = 1; vars = Smap.empty; slots = [||]; host; updates = ref [] }

let with_item env item pos size = { env with item = Some item; pos; size }
let bind env name value = { env with vars = Smap.add name value env.vars }

let lookup env name =
  match Smap.find_opt name env.vars with
  | Some v -> v
  | None -> eval_error "undefined variable $%s" name

let context_item env =
  match env.item with
  | Some it -> it
  | None -> eval_error "the context item is undefined"

let context_node env =
  match context_item env with
  | Value.Node n -> n
  | Value.Atom _ -> eval_error "the context item is not a node"

let emit env u = env.updates := u :: !(env.updates)
let pending env = List.rev !(env.updates)
