(* Dynamic evolution (paper §5 future work).

   "Demaq applications currently rely on a static set of queues, slicings,
   and rule definitions that cannot be adapted during system runtime ...
   clearly, this is unacceptable for zero-downtime environments." [evolve]
   applies an incremental script (additional create statements and [drop
   rule] statements) to a running engine context: the combined program is
   re-analyzed as a whole, new definitions are registered, and the rule
   set is recompiled — without stopping the engine or touching stored
   messages. New rules apply to all messages processed from now on; new
   properties and slicings only affect messages enqueued after the
   evolution (property values and memberships are fixed at creation,
   §2.2). A message of a queue that had no rule was processed when it was
   created (an inert message, see [Executor.inert]), so a rule added to
   such a queue applies only to messages created after it. The swap happens under the executor's state lock, so no message
   is processed against a half-updated definition set. *)

module Qm = Demaq_mq.Queue_manager
module Qdl = Demaq_lang.Qdl
module Analysis = Demaq_lang.Analysis
module Compiler = Demaq_lang.Compiler

let evolve (ctx : Executor.t) src =
  match Qdl.parse_program_result src with
  | Error msg -> Error msg
  | Ok statements ->
    let drops =
      List.filter_map (function Qdl.Drop_rule n -> Some n | _ -> None) statements
    in
    let additions =
      List.filter (function Qdl.Drop_rule _ -> false | _ -> true) statements
    in
    let current = Compiler.source_program ctx.Executor.compiled in
    let existing_rules = List.map (fun r -> r.Qdl.rname) (Qdl.rules current) in
    let missing = List.filter (fun n -> not (List.mem n existing_rules)) drops in
    if missing <> [] then
      Error
        (Printf.sprintf "cannot drop unknown rule%s: %s"
           (if List.length missing = 1 then "" else "s")
           (String.concat ", " missing))
    else begin
      let base =
        List.filter
          (function
            | Qdl.Create_rule r -> not (List.mem r.Qdl.rname drops)
            | _ -> true)
          current
      in
      let combined = base @ additions in
      let analysis = Analysis.analyze combined in
      if not analysis.Analysis.ok then Error (Analysis.errors_to_string analysis)
      else
        Executor.locked ctx (fun () ->
            List.iter
              (function
                | Qdl.Create_queue q -> Qm.add_queue ctx.Executor.qm q
                | Qdl.Create_property p -> Qm.add_property ctx.Executor.qm p
                | Qdl.Create_slicing s -> Qm.add_slicing ctx.Executor.qm s
                | Qdl.Create_rule _ | Qdl.Drop_rule _ -> ())
              additions;
            ctx.Executor.compiled <-
              Compiler.compile
                ~reference:(Compiler.reference ctx.Executor.compiled)
                combined;
            Ok ())
    end
