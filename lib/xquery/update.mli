(** Pending update primitives (XQuery Update Facility style, extended with
    the Demaq queue primitives, §3.2/§3.4).

    Rule evaluation produces a list of these; nothing is applied until the
    whole rule set has been evaluated, giving the snapshot semantics of
    §3.1 ("the separation of rule evaluation from action execution"). *)

type t =
  | Enqueue of {
      payload : string;
          (** the message body, encoded as bXML ({!Demaq_xml.Bxml}):
              a constructor payload is written there directly, and the
              queue layer stores these bytes as they are *)
      queue : string;  (** target queue name *)
      props : (string * Value.atomic) list;
          (** explicit properties from [with ... value ...] clauses *)
    }
  | Reset of {
      slicing : string option;
          (** [None]: the slice of the current rule's slicing context *)
      key : Value.atomic option;
    }

val pp : Format.formatter -> t -> unit
