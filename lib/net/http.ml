(* A deliberately small HTTP/1.0 server for the observability endpoints
   and the message ingress.

   [Network] stays a simulated transport (deterministic tests, fault
   injection); this module is the one place the engine touches real
   sockets. The server is a fixed pool of accept-loop domains sharing one
   listening socket: a Prometheus scrape and an ingress POST are both
   single short-lived requests, so per-connection state never outlives a
   pool iteration, and the kernel spreads accepts across the idle domains.

   Robustness lessons are encoded here rather than in callers:

   - The whole request head is drained (up to the blank-line terminator,
     bounded at 8 KiB) before any response is written. Responding after
     only the request line leaves the rest of the head unread in the
     socket buffer, and the later close then sends RST, which can destroy
     the in-flight response for any client that sends ordinary
     multi-header requests.
   - Every read carries a receive deadline (SO_RCVTIMEO): a stalled or
     dead client is answered 408 and closed instead of occupying its pool
     slot forever (one slow-loris connection used to block every
     subsequent scrape).
   - Head scanning is incremental (resumes where the last fill stopped)
     instead of re-materializing the buffer per chunk, which was a
     quadratic scan.
   - SIGPIPE is ignored process-wide before any socket writing: a peer
     that resets mid-response (an aborted curl, a loadgen client past its
     deadline) turns the next write into EPIPE, which every write site
     handles, instead of a signal that kills the node.
   - No request allocates a read buffer. The server and the one-shot
     client read through one buffer per domain ([read_buf], a
     [Domain.DLS] key): a 4 KiB buffer per request went straight to the
     major heap and was most of a request's GC cost. Two rules keep one
     buffer per domain safe. No code in [lib/] or [bin/] runs systhreads,
     which would share their domain's buffer (the [http] test suite
     checks that no dune file there links [threads]). And the buffer is
     never held across a call out of this module: [read_head] returns
     copies, [read_body] reads into the body it returns, and the gate
     and the handler run while the buffer is free, so a handler may
     itself make a one-shot request. *)

let log = Logs.Src.create "demaq.http" ~doc:"Demaq HTTP endpoint"

module Log = (val Logs.src_log log : Logs.LOG)

(* Writing to a peer that already closed or reset its end (a loadgen
   client past its response deadline, a curl aborted mid-/trace) must
   surface as EPIPE — which every write site here handles — not as
   SIGPIPE, whose default disposition kills the whole process. Forced by
   the server, the one-shot clients and the load generator before their
   first socket write. *)
let sigpipe_ignored =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> () (* platform without signals *))

let ignore_sigpipe () = Lazy.force sigpipe_ignored

type meth = GET | POST

type request = {
  meth : meth;
  path : string;
  query : string;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  content_type : string;
  extra_headers : (string * string) list;  (* e.g. Retry-After on a 429 *)
  resp_body : string;
}

let response ~status ?(content_type = "text/plain") ?(headers = []) resp_body =
  { status; content_type; extra_headers = headers; resp_body }

let ok ?(content_type = "text/plain") body = response ~status:200 ~content_type body

type handler = request -> response option

type t = {
  sock : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  served : int Atomic.t;
  timed_out : int Atomic.t;
  mutable pool : unit Domain.t array;
      (* written once by [start] before it returns, read only by [stop];
         never touched from the pool domains themselves *)
}

let max_head = 8192

let reason_phrase = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 411 -> "Length Required"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Content"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | _ -> "Unknown"

(* ---- reading the request ---- *)

type head_result =
  | Head of { head : string; leftover : string }
  | Closed  (* EOF before a complete head; includes the empty request *)
  | Head_too_large
  | Read_timeout

(* The one read buffer of the calling domain: [read_head] fills it,
   [drain_body], [lingering_close] and the one-shot client read through
   it, so no request allocates a read buffer of its own. Its size is the
   head bound: a head that fills it without a terminator is too large. *)
let read_buf = Domain.DLS.new_key (fun () -> Bytes.create max_head)

(* The end of the first "\r\n\r\n" or "\n\n" in [buf]'s first [n] bytes
   whose first byte is at or after [i]; -1 if there is none. *)
let rec terminator_end buf n i =
  if i >= n then -1
  else if Bytes.unsafe_get buf i = '\n' then
    if i + 1 < n && Bytes.unsafe_get buf (i + 1) = '\n' then i + 2
    else if
      i + 2 < n
      && Bytes.unsafe_get buf (i + 1) = '\r'
      && Bytes.unsafe_get buf (i + 2) = '\n'
    then i + 3
    else terminator_end buf n (i + 1)
  else terminator_end buf n (i + 1)

(* [read_head fd] drains the request head through the first blank line
   into the domain's read buffer. The terminator scan resumes at the
   previous fill's end, so the total scan cost is linear in the head
   size. Bytes past the terminator (the start of a request body) are
   returned as [leftover]; head and leftover are copies, so the buffer
   is free again when this returns. *)
let read_head fd =
  let buf = Domain.DLS.get read_buf in
  let rec fill scanned len =
    (* a terminator's first byte may lie up to 3 bytes before the end of
       the previous fill *)
    let stop = terminator_end buf len (max 0 (scanned - 3)) in
    if stop >= 0 then
      Head
        {
          head = Bytes.sub_string buf 0 stop;
          leftover = Bytes.sub_string buf stop (len - stop);
        }
    else if len >= max_head then Head_too_large
    else
      match Unix.read fd buf len (max_head - len) with
      | 0 -> Closed
      | n -> fill len (len + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill scanned len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Read_timeout
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        Closed
  in
  fill 0 0

type body_result = Body of string | Body_closed | Body_timeout

(* The body is read straight into the string it becomes: no buffer, no
   final copy. *)
let read_body fd ~leftover ~length =
  let have = String.length leftover in
  if have = length then Body leftover
  else if have > length then Body (String.sub leftover 0 length)
  else begin
    let body = Bytes.create length in
    Bytes.blit_string leftover 0 body 0 have;
    let rec fill off =
      if off >= length then Body (Bytes.unsafe_to_string body)
      else
        match Unix.read fd body off (length - off) with
        | 0 -> Body_closed
        | n -> fill (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          Body_timeout
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          Body_closed
    in
    fill have
  end

(* ---- parsing ---- *)

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> None
  | request_line :: header_lines ->
    let request_line = String.trim request_line in
    let headers =
      List.filter_map
        (fun line ->
          let line = String.trim line in
          match String.index_opt line ':' with
          | Some i when i > 0 ->
            Some
              ( String.lowercase_ascii (String.sub line 0 i),
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1)) )
          | _ -> None)
        header_lines
    in
    (match String.split_on_char ' ' request_line with
     | meth :: target :: _ ->
       let path, query =
         match String.index_opt target '?' with
         | Some i ->
           ( String.sub target 0 i,
             String.sub target (i + 1) (String.length target - i - 1) )
         | None -> (target, "")
       in
       Some (meth, path, query, headers)
     | _ -> None)

type length = No_length | Bad_length | Length of int

(* Strictly plain decimal: [int_of_string_opt] alone would honor OCaml
   literal forms ("0x10", "0o17", "1_000", leading '+'). *)
let content_length headers =
  match List.assoc_opt "content-length" headers with
  | None -> No_length
  | Some v -> (
    let v = String.trim v in
    if v = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') v) then
      Bad_length
    else
      match int_of_string_opt v with
      | Some n -> Length n
      | None -> Bad_length (* overflow *))

(* ---- writing the response ---- *)

let write_all fd payload =
  let len = String.length payload in
  let rec go off =
    if off < len then
      match Unix.write_substring fd payload off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let respond fd { status; content_type; extra_headers; resp_body } =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) extra_headers)
  in
  let head =
    Printf.sprintf
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%s\
       Connection: close\r\n\r\n"
      status (reason_phrase status) content_type (String.length resp_body)
      extra
  in
  write_all fd (head ^ resp_body)

(* Close without clobbering the response: signal end-of-response with a
   write shutdown, then drain (briefly, bounded) whatever request bytes
   the client is still sending, so the final close never has unread data
   that would turn it into an RST racing the response across the wire. *)
let lingering_close fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0
   with Unix.Unix_error _ -> ());
  let chunk = Domain.DLS.get read_buf in
  let rec drain budget =
    if budget > 0 then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n -> drain (budget - n)
      | exception Unix.Unix_error _ -> ()
  in
  drain 65536

(* ---- per-connection servicing ---- *)

(* Read and discard up to [n] request-body bytes. The shed path (an
   admission-gate 429) uses this before answering: responding while the
   client is still streaming its body and then closing turns the unread
   data into an RST that can destroy the 429 on the wire — the client
   would see a connection error instead of the backpressure signal it is
   supposed to honor. Gives up quietly on EOF/timeout/reset; the
   lingering close mops up any remainder. *)
let drain_body fd n =
  let chunk = Domain.DLS.get read_buf in
  let rec go remaining =
    if remaining > 0 then
      match Unix.read fd chunk 0 (min (Bytes.length chunk) remaining) with
      | 0 -> ()
      | k -> go (remaining - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go remaining
      | exception Unix.Unix_error _ -> ()
  in
  go n

let serve_conn t ~read_timeout ~max_body ~gate handler fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout
       with Unix.Unix_error _ -> ());
      let finish resp =
        Atomic.incr t.served;
        (try respond fd resp with Unix.Unix_error _ -> ());
        lingering_close fd
      in
      let timeout () =
        Atomic.incr t.timed_out;
        Atomic.incr t.served;
        (try respond fd (response ~status:408 "request timeout\n")
         with Unix.Unix_error _ -> ())
        (* no lingering close: the peer is stalled, just drop it *)
      in
      let dispatch req =
        match handler req with
        | Some resp -> finish resp
        | None -> finish (response ~status:404 "not found\n")
        | exception e ->
          Log.warn (fun f ->
              f "handler raised on %s: %s" req.path (Printexc.to_string e));
          finish (response ~status:500 "internal error\n")
      in
      match read_head fd with
      | Closed -> (* nothing to answer *) ()
      | Read_timeout -> timeout ()
      | Head_too_large ->
        finish (response ~status:431 "request head too large\n")
      | Head { head; leftover } -> (
        match parse_head head with
        | None -> finish (response ~status:400 "bad request\n")
        | Some (meth, path, query, headers) -> (
          (* shed before the body is read: drain what the client declared
             (bounded at [max_body]; oversized requests would have been
             413 anyway) so the refusal arrives intact, then answer *)
          let shed resp =
            (match content_length headers with
             | Length n when n > 0 ->
               drain_body fd (min n max_body - String.length leftover)
             | Length _ | No_length | Bad_length -> ());
            finish resp
          in
          match meth with
          | "GET" -> (
            let req = { meth = GET; path; query; headers; body = "" } in
            match gate req with
            | Some resp -> shed resp
            | None -> dispatch req)
          | "POST" -> (
            match gate { meth = POST; path; query; headers; body = "" } with
            | Some resp -> shed resp
            | None -> (
              match content_length headers with
              | No_length -> finish (response ~status:411 "length required\n")
              | Bad_length ->
                finish (response ~status:400 "bad content-length\n")
              | Length n when n > max_body ->
                finish (response ~status:413 "payload too large\n")
              | Length n -> (
                match read_body fd ~leftover ~length:n with
                | Body_timeout -> timeout ()
                | Body_closed ->
                  finish (response ~status:400 "truncated body\n")
                | Body body ->
                  dispatch { meth = POST; path; query; headers; body })))
          | _ -> finish (response ~status:405 "method not allowed\n"))))

let accept_loop t ~read_timeout ~max_body ~gate handler =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.accept t.sock with
       | conn, _ -> (
         try serve_conn t ~read_timeout ~max_body ~gate handler conn
         with e ->
           Log.warn (fun f ->
               f "request handling failed: %s" (Printexc.to_string e)))
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | exception Unix.Unix_error _ when Atomic.get t.stopping -> ()
       | exception Unix.Unix_error (err, _, _) ->
         Log.warn (fun f -> f "accept failed: %s" (Unix.error_message err));
         Unix.sleepf 0.01);
      loop ()
    end
  in
  loop ()

let start ?(addr = Unix.inet_addr_loopback) ?(pool = 4) ?(read_timeout = 10.)
    ?(max_body = 1 lsl 20) ?(gate = fun _ -> None) ~port handler =
  ignore_sigpipe ();
  let pool = max 1 pool in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (addr, port));
    Unix.listen sock 128
  with
  | () ->
    let port =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    let stopping = Atomic.make false in
    let served = Atomic.make 0 in
    let timed_out = Atomic.make 0 in
    (* construct [t] fully before spawning: Domain.spawn orders every
       prior write before the child runs, so the pool domains see an
       initialized record with no publication handshake *)
    let t = { sock; port; stopping; served; timed_out; pool = [||] } in
    t.pool <-
      Array.init pool (fun _ ->
          Domain.spawn (fun () ->
              accept_loop t ~read_timeout ~max_body ~gate handler));
    Log.info (fun f -> f "http endpoint listening on port %d (%d accept domains)" port pool);
    Ok t
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close sock with Unix.Unix_error _ -> ());
    Error
      (Printf.sprintf "cannot bind http port %d: %s" port
         (Unix.error_message err))

let port t = t.port
let connections_served t = Atomic.get t.served
let timeouts t = Atomic.get t.timed_out

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* closing the listening socket makes the blocked accepts fail out *)
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    Array.iter Domain.join t.pool
  end

(* ---- one-shot loopback clients ---- *)

(* find the end of the response head ("\r\n\r\n") *)
let find_header_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

(* Like {!roundtrip} but keeps the whole response head (status line +
   headers) — for callers that need a header, e.g. Retry-After on 429. *)
let roundtrip_full ~port req =
  ignore_sigpipe ();
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      (* the server may answer-and-close before reading the whole request
         (413/431): keep going and drain whatever response made it out *)
      (try ignore (Unix.write_substring sock req 0 (String.length req))
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      let buf = Buffer.create 256 in
      let chunk = Domain.DLS.get read_buf in
      let rec drain () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      drain ();
      let response = Buffer.contents buf in
      match find_header_end response with
      | Some i ->
        ( String.sub response 0 i,
          String.sub response i (String.length response - i) )
      | None -> (response, ""))

let roundtrip ~port req =
  let head, body = roundtrip_full ~port req in
  let status =
    match String.index_opt head '\r' with
    | Some eol -> String.sub head 0 eol
    | None -> head
  in
  (status, body)

let get ~port path =
  roundtrip ~port (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path)

let post_request ?(content_type = "application/xml") path body =
  Printf.sprintf
    "POST %s HTTP/1.0\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s"
    path content_type (String.length body) body

let post ~port ?content_type path body =
  roundtrip ~port (post_request ?content_type path body)

let post_full ~port ?content_type path body =
  roundtrip_full ~port (post_request ?content_type path body)

let header name head =
  let name = String.lowercase_ascii name in
  String.split_on_char '\n' head
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.lowercase_ascii (String.sub line 0 i) = name ->
           Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

let status_code status_line =
  match String.split_on_char ' ' status_line with
  | _ :: code :: _ -> ( match int_of_string_opt code with Some c -> c | None -> 0)
  | _ -> 0
