(** Dynamic evaluation context for QML expressions.

    The {!host} record is how the engine exposes the [qs:] function
    library (§3.4/§3.5) without a dependency from the XQuery library on
    the queue subsystem: the engine installs closures over its store when
    it evaluates a rule. *)

exception Eval_error of string
(** All dynamic errors surface as this exception; the engine converts them
    into error messages per §3.6. *)

val eval_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Eval_error} with a formatted message. *)

type host = {
  h_queue : string option -> Value.t;
      (** [qs:queue()] / [qs:queue("name")]: the document nodes of all
          messages in the queue *)
  h_message : unit -> Value.t;
      (** [qs:message()]: the triggering message's document node *)
  h_property : string -> Value.t;  (** [qs:property("name")] *)
  h_slice : unit -> Value.t;  (** [qs:slice()], slicing rules only *)
  h_slicekey : unit -> Value.t;  (** [qs:slicekey()], slicing rules only *)
  h_collection : string -> Value.t;
      (** [fn:collection("name")]: master data (§3.5.2) *)
  h_now : unit -> int;  (** virtual-clock tick for [fn:current-dateTime] *)
}

val null_host : host
(** Every hook raises {!Eval_error}; [h_now] returns 0. *)

type env = {
  item : Value.item option;  (** the context item, if any *)
  pos : int;  (** [fn:position()] *)
  size : int;  (** [fn:last()] *)
  vars : Value.t Map.Make(String).t;
  slots : Value.t array;
      (** plan bindings by index, read by {!Ast.Slot}: filled by
          {!Plan.eval} for the rules of one plan instance, empty
          elsewhere *)
  host : host;
  updates : Update.t list ref;  (** pending update accumulator *)
}

val make : ?host:host -> ?item:Value.item -> unit -> env

val with_item : env -> Value.item -> int -> int -> env
(** Focus the context on one item with its position and size. *)

val bind : env -> string -> Value.t -> env
val lookup : env -> string -> Value.t

val context_item : env -> Value.item
(** @raise Eval_error when the context item is undefined. *)

val context_node : env -> Demaq_xml.Tree.node
(** @raise Eval_error when the context item is not a node. *)

val emit : env -> Update.t -> unit
val pending : env -> Update.t list
(** Updates emitted so far, in emission order. *)
