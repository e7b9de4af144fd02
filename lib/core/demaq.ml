(** Demaq: declarative XML message processing on transactional XML message
    queues — an OCaml implementation of the system described in

    {e Böhm, Kanne, Moerkotte: "Demaq: A Foundation for Declarative XML
    Message Processing", CIDR 2007.}

    This module is the public facade. A typical application:

    {[
      let program = {|
        create queue crm kind basic mode persistent
        create queue customer kind outgoingGateway mode persistent
        create rule ack for crm
          if (//order) then
            do enqueue <confirmation>{//order/id}</confirmation> into customer
      |}

      let server = Demaq.deploy program in
      ignore (Demaq.inject server ~queue:"crm" (Demaq.xml "<order><id>7</id></order>"));
      ignore (Demaq.Server.run server)
    ]}

    The submodules expose each subsystem: [Xml] (data model, parser,
    serializer, schema), [Xquery] (the rule expression language), [Store]
    (WAL, B-tree, recoverable message store), [Mq] (queues, properties,
    slicings, retention), [Net] (simulated transports), [Lang] (QDL/QML
    front-end and rule compiler), [Engine] (scheduler, timers, server),
    [Obs] (metrics, spans, flows) and [Sim] (the deterministic simulation
    harness). *)

module Xml = Demaq_xml
module Xquery = Demaq_xquery
module Store = Demaq_store
module Mq = Demaq_mq
module Net = Demaq_net
module Lang = Demaq_lang
module Engine = Demaq_engine
module Obs = Demaq_obs
module Sim = Demaq_sim

(** {1 Shortcuts for the common types} *)

module Server = Demaq_engine.Server
module Message = Demaq_mq.Message
module Value = Demaq_xquery.Value
module Network = Demaq_net.Network
module Tree = Demaq_xml.Tree

(** {1 Convenience functions} *)

let xml = Demaq_xml.Parser.parse
(** Parse an XML document/element from a string. *)

let xml_to_string = Demaq_xml.Serializer.to_string
let xml_pretty = Demaq_xml.Serializer.to_string_pretty

let deploy = Demaq_engine.Server.deploy
(** Deploy a Demaq program (QDL + QML source text) into a fresh server. *)

let inject = Demaq_engine.Server.inject
(** Deliver an external message into one of the server's queues. *)

let query ?host ?vars ?context src =
  fst (Demaq_xquery.Eval.run ?host ?vars ?context src)
(** One-shot expression evaluation, for exploration and tests. *)

(* Kept so the original scaffold's placeholder test keeps compiling until
   the real suites replace it. *)
let placeholder () = ()
