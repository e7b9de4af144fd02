(* Per-message lifecycle tracing (§2.3.3): every transaction the executor
   runs emits one span — which message, which queue, how long each §3.1
   phase took (lock/setup, snapshot evaluation, atomic apply, durability
   barrier), which rules fired or were pre-filtered away, how many actions
   applied, and the outcome — into a bounded ring. The ring is a plain
   circular buffer under its own mutex: recording is O(1), the capacity
   bounds retention exactly (unlike the old 2x-slack trace list), and a
   capacity of 0 disables tracing entirely. *)

type activation = {
  a_rule : string;
  a_updates : int;  (* pending updates the evaluation produced *)
  a_skipped : bool;  (* suppressed by the condition pre-filter *)
}

type outcome = Committed | Aborted of string

type span = {
  sp_rid : int;
  sp_queue : string;
  sp_flow : string;  (* causal flow id; "" when the message is untraced *)
  sp_parent : int;  (* rid of the causing message; -1 = cascade root *)
  sp_cause : string;  (* rule (or origin kind) that enqueued the message *)
  sp_tick : int;  (* logical clock at commit/abort *)
  sp_worker : int;  (* metrics shard of the processing domain; 0 = main *)
  sp_start_ns : int;  (* wall clock at setup start; 0 when timing is off *)
  sp_wait_ns : int;  (* enqueue/schedule -> dispatch queueing delay *)
  sp_lock_ns : int;  (* setup: fetch + plan lookup + prefilter *)
  sp_decode_ns : int;  (* lazy payload decode within setup (a sub-interval
                          of [sp_lock_ns]; 0 when admission resolved from
                          the payload synopsis without materializing) *)
  sp_eval_ns : int;  (* unlocked snapshot rule evaluation *)
  sp_apply_ns : int;  (* locked apply + commit *)
  sp_barrier_ns : int;  (* abort-path hardening; batch barriers are per
                           batch and recorded in the barrier histogram *)
  sp_activations : activation list;  (* in evaluation order *)
  sp_actions : int;  (* updates applied (enqueues + resets) *)
  sp_batch : int;  (* group-commit batch target in force at dispatch; the
                      adaptive controller moves it, so spans record which
                      regime the message ran under *)
  sp_outcome : outcome;
}

type t = {
  capacity : int;
  mu : Mutex.t;
  ring : span option array;  (* slot [pos] is the next write target *)
  mutable pos : int;
  mutable total : int;  (* spans ever recorded, for drop accounting *)
}

let create ~capacity =
  let capacity = max 0 capacity in
  {
    capacity;
    mu = Mutex.create ();
    ring = Array.make (max 1 capacity) None;
    pos = 0;
    total = 0;
  }

let enabled t = t.capacity > 0
let capacity t = t.capacity
let total t = Mutex.protect t.mu (fun () -> t.total)

let record t span =
  if t.capacity > 0 then
    Mutex.protect t.mu @@ fun () ->
    t.ring.(t.pos) <- Some span;
    t.pos <- (t.pos + 1) mod t.capacity;
    t.total <- t.total + 1

(* Newest first, like the trace log it replaces. *)
let spans t =
  if t.capacity = 0 then []
  else
    Mutex.protect t.mu @@ fun () ->
    let acc = ref [] in
    for i = 0 to t.capacity - 1 do
      (* walk oldest -> newest starting at [pos], consing reverses *)
      match t.ring.((t.pos + i) mod t.capacity) with
      | Some s -> acc := s :: !acc
      | None -> ()
    done;
    !acc

(* ---- JSONL ---- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let activation_json a =
  Printf.sprintf "{\"rule\":\"%s\",\"updates\":%d,\"skipped\":%b}"
    (json_escape a.a_rule) a.a_updates a.a_skipped

let span_json s =
  let outcome =
    match s.sp_outcome with
    | Committed -> "\"committed\""
    | Aborted reason -> Printf.sprintf "\"aborted:%s\"" (json_escape reason)
  in
  Printf.sprintf
    "{\"rid\":%d,\"queue\":\"%s\",\"flow\":\"%s\",\"parent\":%d,\
     \"cause\":\"%s\",\"tick\":%d,\"worker\":%d,\"start_ns\":%d,\
     \"wait_ns\":%d,\"lock_ns\":%d,\"decode_ns\":%d,\"eval_ns\":%d,\
     \"apply_ns\":%d,\"barrier_ns\":%d,\"rules\":[%s],\"actions\":%d,\
     \"batch\":%d,\"outcome\":%s}"
    s.sp_rid (json_escape s.sp_queue) (json_escape s.sp_flow) s.sp_parent
    (json_escape s.sp_cause) s.sp_tick s.sp_worker s.sp_start_ns s.sp_wait_ns
    s.sp_lock_ns s.sp_decode_ns s.sp_eval_ns s.sp_apply_ns s.sp_barrier_ns
    (String.concat "," (List.map activation_json s.sp_activations))
    s.sp_actions s.sp_batch outcome

(* Oldest first — a JSONL dump reads naturally top to bottom. *)
let dump_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf (span_json s);
      Buffer.add_char buf '\n')
    (List.rev (spans t));
  Buffer.contents buf

let pp_span fmt s =
  let fired =
    List.filter (fun a -> not a.a_skipped) s.sp_activations |> List.length
  in
  let skipped =
    List.filter (fun a -> a.a_skipped) s.sp_activations |> List.length
  in
  Format.fprintf fmt "t=%d #%d %s w%d rules=%d%s actions=%d %s" s.sp_tick
    s.sp_rid s.sp_queue s.sp_worker fired
    (if skipped > 0 then Printf.sprintf " (+%d prefiltered)" skipped else "")
    s.sp_actions
    (match s.sp_outcome with
     | Committed -> "committed"
     | Aborted reason -> "ABORTED: " ^ reason)
