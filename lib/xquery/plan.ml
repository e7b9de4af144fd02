(* The guarded-plan IR: the execution artifact the rule compiler lowers a
   queue's rule set into. All rules of one target are fused into a single
   plan while each rule keeps its own guard, so §3.6 error attribution
   survives the merge; common subexpressions hoisted out of the rule
   bodies become plan-level bindings, and structurally identical guards
   share one evaluation.

   Evaluation preserves per-rule observational semantics exactly:

   - rules run in declaration order, each reported through the caller's
     callbacks at its own turn (so mid-plan error routing interleaves
     with later rules the same way per-rule interpretation does);
   - a hoisted binding or shared guard is evaluated once and memoized,
     but the compiler only hoists pure, stable expressions (no updates,
     no state-reading host calls), so sharing cannot change values;
   - if a memoized binding or guard evaluation FAILS, the plan does not
     guess which error the rule would have reported: every rule that
     depends on it falls back to evaluating its original un-substituted
     body inline, reproducing the per-rule error (and its position in
     the error stream) exactly. *)

type guarded = {
  g_name : string;  (* rule name, for attribution *)
  g_error_queue : string option;  (* rule-level error queue (§3.6) *)
  g_guard : Ast.expr option;
      (* split-out condition; [None] = evaluate [g_then] unconditionally *)
  g_guard_id : int;
      (* rules with structurally identical stable guards share an id —
         and therefore one evaluation per plan instance *)
  g_then : Ast.expr;
  g_else : Ast.expr;
  g_bindings : int list;
      (* indices of the plan bindings the rule needs, ascending;
         transitively closed, so earlier bindings a later one references
         are always present *)
  g_fallback : Ast.expr;
      (* the rule's rewritten body with no hoisting applied: evaluated
         inline when a shared binding or guard fails *)
  g_requirements : string list;
      (* condition pre-filter requirements (element names), as for
         per-rule evaluation; empty = always evaluate *)
}

type t = {
  p_bindings : Ast.expr array;
      (* hoisted common subexpressions, in evaluation (dependency) order;
         binding [k] is read as [Ast.Slot k] *)
  p_guarded : guarded list;  (* declaration order *)
  p_n_guards : int;  (* distinct guard ids *)
  p_filtered : bool;  (* some rule has pre-filter requirements *)
}

type outcome =
  | Updates of Update.t list  (* pending updates, in emission order *)
  | Failed of string  (* dynamic error description, to route per §3.6 *)

let rules t = t.p_guarded
let bindings t = Array.to_list t.p_bindings

(* The last deploy step: [do enqueue] constructors in the rule bodies
   become bXML templates, each compiled once here to its byte program
   ({!Ast.lower_templates}); guards and bindings never update. *)
let make ~bindings ~n_guards guarded =
  let p_guarded =
    List.map
      (fun g ->
        {
          g with
          g_then = Ast.lower_templates g.g_then;
          g_else = Ast.lower_templates g.g_else;
          g_fallback = Ast.lower_templates g.g_fallback;
        })
      guarded
  in
  {
    p_bindings = Array.of_list bindings;
    p_guarded;
    p_n_guards = n_guards;
    p_filtered = List.exists (fun g -> g.g_requirements <> []) p_guarded;
  }

let of_rules rules =
  make ~bindings:[] ~n_guards:(List.length rules)
    (List.mapi
        (fun i (g_name, g_error_queue, body) ->
          {
            g_name;
            g_error_queue;
            g_guard = None;
            g_guard_id = i;
            g_then = body;
            g_else = Ast.Empty_seq;
            g_bindings = [];
            g_fallback = body;
            g_requirements = [];
          })
        rules)

let eval ~admitted ~before ~emit env t =
  let binds = t.p_bindings in
  let n = Array.length binds in
  (* each binding's state: 0 not yet evaluated, 1 in its slot, 2 failed.
     A value is bound once per plan instance, not once per rule that
     needs it. Rules only name slots, so a rule's own variables never
     meet them. *)
  let b_state = Array.make n 0 in
  let env = if n = 0 then env else { env with Context.slots = Array.make n [] } in
  let g_memo = Array.make (max 1 t.p_n_guards) None in
  (* Evaluate binding [i] (memoized) into its slot; every binding it
     references is already there: [g_bindings] is ascending and
     transitively closed, so they were forced first. *)
  let bound i =
    if b_state.(i) = 0 then begin
      match Eval.eval env binds.(i) with
      | v ->
        env.Context.slots.(i) <- v;
        b_state.(i) <- 1
      | exception Context.Eval_error _ -> b_state.(i) <- 2
    end;
    b_state.(i) = 1
  in
  let run_body g env body =
    match Eval.eval_with_updates env body with
    | _, updates -> emit g (Updates updates)
    | exception Context.Eval_error d -> emit g (Failed d)
  in
  List.iteri
    (fun idx g ->
      if admitted idx g then begin
        before g;
        if not (List.for_all bound g.g_bindings) then
          (* a hoisted expression this rule depends on failed: replay the
             rule's original body so the error surfaces exactly where (and
             with the description) per-rule evaluation would produce it *)
          run_body g env g.g_fallback
        else begin
          let branch =
            match g.g_guard with
            | None -> Ok g.g_then
            | Some guard -> (
              let r =
                match g_memo.(g.g_guard_id) with
                | Some r -> r
                | None ->
                  let r =
                    match Value.ebv (Eval.eval env guard) with
                    | b -> Ok b
                    | exception Context.Eval_error d -> Error d
                    | exception Value.Type_error d -> Error d
                  in
                  g_memo.(g.g_guard_id) <- Some r;
                  r
              in
              match r with
              | Ok b -> Ok (if b then g.g_then else g.g_else)
              | Error d -> Error d)
          in
          match branch with
          | Ok body -> run_body g env body
          | Error _ -> run_body g env g.g_fallback
        end
      end)
    t.p_guarded
