(* HTTP ingress: the seam between [Demaq_net.Http] (real sockets, pool of
   accept domains) and the engine's transactional enqueue path. *)

module Http = Demaq_net.Http
module Qm = Demaq_mq.Queue_manager

let enqueue_prefix = "/enqueue/"
let flow_prefix = "/flow/"

(* Minimal query-string access: [k1=v1&k2=v2], with %XX and '+'
   decoding — enough for queue names and rids. *)
let query_params q =
  if q = "" then []
  else
    String.split_on_char '&' q
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | None -> None
           | Some i ->
             let decode s =
               let b = Buffer.create (String.length s) in
               let n = String.length s in
               let i = ref 0 in
               while !i < n do
                 (match s.[!i] with
                 | '+' -> Buffer.add_char b ' '
                 | '%' when !i + 2 < n -> (
                   match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
                   | Some c ->
                     Buffer.add_char b (Char.chr c);
                     i := !i + 2
                   | None -> Buffer.add_char b '%')
                 | c -> Buffer.add_char b c);
                 incr i
               done;
               Buffer.contents b
             in
             Some
               ( String.sub kv 0 i,
                 decode (String.sub kv (i + 1) (String.length kv - i - 1)) ))

let single_response queue = function
  | Ok m ->
    Http.response ~status:202 ~content_type:"application/xml"
      (Printf.sprintf "<accepted rid=\"%d\" queue=\"%s\"/>\n"
         m.Demaq_mq.Message.rid queue)
  | Error (Qm.Unknown_queue q) ->
    Http.response ~status:404 (Printf.sprintf "unknown queue %s\n" q)
  | Error e ->
    (* schema violation, property error: a permanent admission
       rejection — 422, not 429, so a well-behaved client won't
       retry a message that can never be admitted *)
    Http.response ~status:422 (Qm.error_to_string e ^ "\n")

(* A body holding several concatenated documents is admitted as a batch:
   one parser pass, one engine lock acquisition, per-document
   transactions. 202 only when every document was accepted; 404 when the
   whole batch names an unknown queue; 422 otherwise, with a per-document
   result report either way. *)
let batch_response srv ?flow queue payloads =
  let results = Server.inject_batch srv ?flow ~queue payloads in
  let accepted, rejected =
    List.fold_left
      (fun (a, r) res -> match res with Ok _ -> (a + 1, r) | Error _ -> (a, r + 1))
      (0, 0) results
  in
  let body = Buffer.create 256 in
  Buffer.add_string body
    (Printf.sprintf "<batch queue=\"%s\" accepted=\"%d\" rejected=\"%d\">\n" queue
       accepted rejected);
  List.iter
    (fun res ->
      Buffer.add_string body
        (match res with
        | Ok m ->
          Printf.sprintf "  <accepted rid=\"%d\"/>\n" m.Demaq_mq.Message.rid
        | Error e ->
          Printf.sprintf "  <rejected reason=\"%s\"/>\n" (Qm.error_to_string e)))
    results;
  Buffer.add_string body "</batch>\n";
  let status =
    if rejected = 0 then 202
    else if
      accepted = 0
      && List.for_all
           (function Error (Qm.Unknown_queue _) -> true | _ -> false)
           results
    then 404
    else 422
  in
  Http.response ~status ~content_type:"application/xml" (Buffer.contents body)

let handle_enqueue srv ?flow queue body =
  if queue = "" then
    Http.response ~status:404 "missing queue name\n"
  else
    match Demaq_xml.Parser.parse_many body with
    | exception Demaq_xml.Parser.Parse_error { msg; _ } ->
      Http.response ~status:400 (Printf.sprintf "bad XML: %s\n" msg)
    | [ payload ] ->
      single_response queue (Server.inject srv ?flow ~queue payload)
    | payloads -> batch_response srv ?flow queue payloads

(* [/flow/<id>] accepts either a flow id or a bare rid (all digits):
   the rid is resolved to its flow first, so "the flow this accepted
   message belongs to" is one request away from an /enqueue response. *)
let handle_flow srv id =
  let flow_id =
    match int_of_string_opt id with
    | Some rid -> Server.flow_id_of_rid srv rid
    | None -> Some id
  in
  match flow_id with
  | None -> Http.response ~status:404 (Printf.sprintf "unknown rid %s\n" id)
  | Some fid ->
    match Server.flow_nodes srv fid with
    | [] -> Http.response ~status:404 (Printf.sprintf "unknown flow %s\n" fid)
    | nodes ->
      Http.ok ~content_type:"application/json"
        (Demaq_obs.Flow.render_json fid nodes)

(* The admission gate as an [Http.start ?gate] hook: consulted after the
   request head is parsed but before the body is read or an XML tree
   built, so a shed request costs the node a header parse and nothing
   else. Only enqueue POSTs are gated — the observability endpoints must
   stay readable precisely when the node is overloaded. 429 + Retry-After
   marks the rejection transient, in contrast to the permanent 422 the
   enqueue path answers for schema violations. *)
let gate srv (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | Http.POST, path when String.starts_with ~prefix:enqueue_prefix path ->
    let queue =
      String.sub path (String.length enqueue_prefix)
        (String.length path - String.length enqueue_prefix)
    in
    (match Server.admission srv ~queue with
     | Gate.Admit -> None
     | Gate.Shed { retry_after; hard } ->
       Some
         (Http.response ~status:429
            ~headers:[ ("Retry-After", string_of_int retry_after) ]
            (Printf.sprintf "overloaded (%s), retry after %ds\n"
               (if hard then "shedding all traffic"
                else "shedding below the priority floor")
               retry_after)))
  | _ -> None

let handler ?(enqueue = true) srv (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | Http.GET, "/metrics" ->
    Some
      (Http.ok ~content_type:"text/plain; version=0.0.4"
         (Server.exposition srv))
  | Http.GET, "/stats.json" ->
    Some (Http.ok ~content_type:"application/json" (Server.stats_json srv))
  | Http.GET, "/trace" ->
    let params = query_params req.Http.query in
    let queue = List.assoc_opt "queue" params in
    let rid = Option.bind (List.assoc_opt "rid" params) int_of_string_opt in
    Some
      (Http.ok ~content_type:"application/jsonl"
         (Server.spans_jsonl ?queue ?rid srv))
  | Http.GET, "/flows" ->
    Some (Http.ok ~content_type:"application/json" (Server.flows_json srv))
  | Http.GET, path when String.starts_with ~prefix:flow_prefix path ->
    let id =
      String.sub path (String.length flow_prefix)
        (String.length path - String.length flow_prefix)
    in
    Some (handle_flow srv id)
  | Http.GET, "/healthz" -> Some (Http.ok "ok\n")
  | Http.POST, path
    when enqueue && String.starts_with ~prefix:enqueue_prefix path ->
    let queue =
      String.sub path (String.length enqueue_prefix)
        (String.length path - String.length enqueue_prefix)
    in
    let flow =
      match List.assoc_opt "x-demaq-flow" req.Http.headers with
      | Some "" | None -> None
      | some -> some
    in
    Some (handle_enqueue srv ?flow queue req.Http.body)
  | _ -> None
