(* Static semantic analysis of a Demaq program: name resolution and the
   context restrictions the paper states (e.g. qs:slice()/qs:slicekey()
   "are only available to rules defined on slicings", §3.5.2). *)

module Ast = Demaq_xquery.Ast
module Defs = Demaq_mq.Defs

type severity = Error | Warning

type diagnostic = { severity : severity; where : string; message : string }

let diag severity where fmt =
  Format.kasprintf (fun message -> { severity; where; message }) fmt

let pp_diagnostic fmt d =
  Format.fprintf fmt "%s: %s: %s"
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.where d.message

type result = {
  diagnostics : diagnostic list;
  ok : bool;  (* no errors (warnings allowed) *)
}

let errors_to_string r =
  String.concat "\n"
    (List.filter_map
       (fun d ->
         if d.severity = Error then Some (Format.asprintf "%a" pp_diagnostic d)
         else None)
       r.diagnostics)

(* Free variables of a rule body: referenced but never bound by a FLWOR
   or quantifier clause in scope. QML rules have no external variable
   environment, so any free variable is a guaranteed runtime error. *)
let free_variables body =
  let rec go bound acc expr =
    match expr with
    | Ast.Var v -> if List.mem v bound then acc else v :: acc
    | Ast.Flwor (clauses, ret) ->
      let bound, acc =
        List.fold_left
          (fun (bound, acc) clause ->
            match clause with
            | Ast.For binds ->
              List.fold_left
                (fun (bound, acc) (v, pos, e) ->
                  let acc = go bound acc e in
                  let bound = v :: bound in
                  ((match pos with Some p -> p :: bound | None -> bound), acc))
                (bound, acc) binds
            | Ast.Let binds ->
              List.fold_left
                (fun (bound, acc) (v, e) -> (v :: bound, go bound acc e))
                (bound, acc) binds
            | Ast.Where e -> (bound, go bound acc e)
            | Ast.Order_by keys ->
              (bound, List.fold_left (fun acc (e, _, _) -> go bound acc e) acc keys))
          (bound, acc) clauses
      in
      go bound acc ret
    | Ast.Quantified (_, binds, sat) ->
      let bound, acc =
        List.fold_left
          (fun (bound, acc) (v, e) -> (v :: bound, go bound acc e))
          (bound, acc) binds
      in
      go bound acc sat
    | Ast.Sequence es -> List.fold_left (go bound) acc es
    | Ast.Path (a, b) | Ast.Binary (_, a, b) | Ast.Range (a, b)
    | Ast.Computed_elem (a, b) | Ast.Computed_attr (a, b) ->
      go bound (go bound acc a) b
    | Ast.Axis_step (_, _, preds) -> List.fold_left (go bound) acc preds
    | Ast.Filter (e, preds) -> List.fold_left (go bound) (go bound acc e) preds
    | Ast.Call (_, args) -> List.fold_left (go bound) acc args
    | Ast.If (c, t, e) -> go bound (go bound (go bound acc c) t) e
    | Ast.Neg e | Ast.Computed_text e | Ast.Cast (e, _, _) | Ast.Instance_of (e, _)
    | Ast.Treat_as (e, _) ->
      go bound acc e
    | Ast.Direct_elem d | Ast.Template { t_source = d; _ } ->
      let acc =
        List.fold_left
          (fun acc (_, pieces) ->
            List.fold_left
              (fun acc p ->
                match p with Ast.A_text _ -> acc | Ast.A_expr e -> go bound acc e)
              acc pieces)
          acc d.Ast.dattrs
      in
      List.fold_left
        (fun acc p ->
          match p with Ast.C_text _ -> acc | Ast.C_expr e -> go bound acc e)
        acc d.Ast.dcontent
    | Ast.Enqueue { payload; props; _ } ->
      List.fold_left (fun acc (_, e) -> go bound acc e) (go bound acc payload) props
    | Ast.Reset (Some (_, key)) -> go bound acc key
    | Ast.Reset None | Ast.Literal _ | Ast.Empty_seq | Ast.Slot _ | Ast.Context_item
    | Ast.Root ->
      acc
  in
  List.sort_uniq compare (go [] [] body)

let enqueue_targets body =
  Ast.fold_expr
    (fun acc e -> match e with Ast.Enqueue { queue; _ } -> queue :: acc | _ -> acc)
    [] body

let analyze (program : Qdl.program) : result =
  let queues = Qdl.queues program in
  let properties = Qdl.properties program in
  let slicings = Qdl.slicings program in
  let rules = Qdl.rules program in
  let queue_names = List.map (fun q -> q.Defs.qname) queues in
  let slicing_names = List.map (fun s -> s.Defs.sname) slicings in
  let property_names = List.map (fun p -> p.Defs.pname) properties in
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let dup kind names =
    let sorted = List.sort compare names in
    let rec go = function
      | a :: (b :: _ as rest) ->
        if a = b then emit (diag Error kind "duplicate definition of %s" a);
        go rest
      | _ -> ()
    in
    go sorted
  in
  List.iter
    (function
      | Qdl.Drop_rule name ->
        emit
          (diag Error ("drop rule " ^ name)
             "drop statements are only valid in evolution scripts applied to a running server")
      | _ -> ())
    program;
  dup "queue" queue_names;
  dup "slicing" slicing_names;
  dup "property" property_names;
  dup "rule" (List.map (fun r -> r.Qdl.rname) rules);
  (* Queue-level checks. *)
  List.iter
    (fun q ->
      let where = "queue " ^ q.Defs.qname in
      (match q.Defs.error_queue with
       | Some eq when not (List.mem eq queue_names) ->
         emit (diag Error where "unknown error queue %s" eq)
       | _ -> ());
      (* §2.1.2: reliable messaging extensions require persistence. *)
      if q.Defs.mode = Defs.Transient
         && List.mem_assoc "WS-ReliableMessaging" q.Defs.extensions
      then
        emit
          (diag Error where
             "WS-ReliableMessaging requires a persistent queue (paper §2.1.2)"))
    queues;
  (* Property checks. *)
  List.iter
    (fun p ->
      let where = "property " ^ p.Defs.pname in
      List.iter
        (fun qn ->
          if not (List.mem qn queue_names) then
            emit (diag Error where "refers to unknown queue %s" qn))
        (Defs.property_queues p))
    properties;
  (* Slicing checks. *)
  List.iter
    (fun s ->
      let where = "slicing " ^ s.Defs.sname in
      if not (List.mem s.Defs.slice_property property_names) then
        emit (diag Error where "refers to unknown property %s" s.Defs.slice_property))
    slicings;
  (* Rule checks. *)
  List.iter
    (fun r ->
      let where = "rule " ^ r.Qdl.rname in
      let on_slicing = List.mem r.Qdl.target slicing_names in
      if (not on_slicing) && not (List.mem r.Qdl.target queue_names) then
        emit (diag Error where "unknown queue or slicing %s" r.Qdl.target);
      (match r.Qdl.rule_error_queue with
       | Some eq when not (List.mem eq queue_names) ->
         emit (diag Error where "unknown error queue %s" eq)
       | _ -> ());
      (* qs:slice / qs:slicekey only on slicing rules (§3.5.2) *)
      let calls = Ast.called_functions r.Qdl.body in
      if not on_slicing then
        List.iter
          (fun f ->
            if f = "qs:slice" || f = "qs:slicekey" then
              emit
                (diag Error where
                   "%s() is only available in rules attached to slicings" f))
          calls;
      (* enqueue targets must exist *)
      List.iter
        (fun q ->
          if not (List.mem q queue_names) then
            emit (diag Error where "do enqueue into unknown queue %s" q))
        (enqueue_targets r.Qdl.body);
      (* free variables fail at runtime with certainty *)
      List.iter
        (fun v -> emit (diag Error where "undefined variable $%s" v))
        (free_variables r.Qdl.body);
      (* A rule that can produce no update is almost certainly a mistake. *)
      if not (Ast.contains_update r.Qdl.body) then
        emit (diag Warning where "rule body contains no update primitive");
      (* Statically dead rules: the condition requires element names the
         target queue's (closed) schema vocabulary can never admit — the
         compiler prunes such rules from the plan at deployment. *)
      if not on_slicing then
        match List.find_opt (fun q -> q.Defs.qname = r.Qdl.target) queues with
        | Some { Defs.schema = Some schema; _ } -> (
          let vocabulary = Prefilter.schema_vocabulary schema in
          let requirements = Prefilter.rule_requirements r.Qdl.body in
          match Prefilter.unsatisfiable vocabulary requirements with
          | Some reason ->
            emit
              (diag Warning where
                 "statically dead on queue %s: %s (rule will be pruned from the plan)"
                 r.Qdl.target reason)
          | None -> ())
        | _ -> ())
    rules;
  let diagnostics = List.rev !ds in
  { diagnostics; ok = not (List.exists (fun d -> d.severity = Error) diagnostics) }
