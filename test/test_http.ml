(* Tests for the real-socket HTTP layer: the multi-connection server, the
   POST ingress path, the two regression bugs the load generator flushed
   out (partial-head close clobbering responses; a stalled client wedging
   the accept loop), and an end-to-end open-loop loadgen smoke. *)

module Http = Demaq.Net.Http
module Loadgen = Demaq.Net.Loadgen
module Ingress = Demaq.Engine.Ingress
module Gate = Demaq.Engine.Gate
module Store = Demaq.Store.Message_store
module Wal = Demaq.Store.Wal
module S = Demaq.Server

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let echo_handler (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | Http.GET, "/ping" -> Some (Http.ok "pong\n")
  | Http.POST, "/echo" ->
    Some (Http.ok ~content_type:"application/xml" req.Http.body)
  | _ -> None

let with_server ?pool ?read_timeout ?max_body handler f =
  match Http.start ?pool ?read_timeout ?max_body ~port:0 handler with
  | Error msg -> Alcotest.failf "http start: %s" msg
  | Ok server ->
    Fun.protect ~finally:(fun () -> Http.stop server) (fun () -> f server)

(* Raw client: send [chunks] (with [gap] seconds between them), then read
   the whole response to EOF. *)
let raw_roundtrip ~port ?(gap = 0.) chunks =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      List.iteri
        (fun i c ->
          if i > 0 && gap > 0. then Unix.sleepf gap;
          ignore (Unix.write_substring sock c 0 (String.length c)))
        chunks;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      Buffer.contents buf)

(* ---- POST round-trips ---- *)

let test_post_exact () =
  with_server echo_handler (fun server ->
      let port = Http.port server in
      let body = "<order><id>42</id></order>" in
      let status, got = Http.post ~port "/echo" body in
      check int_ "202/200" 200 (Http.status_code status);
      check string_ "body echoed" body got)

let test_post_split_body () =
  (* head and body arriving in separate packets must reassemble *)
  with_server echo_handler (fun server ->
      let port = Http.port server in
      let body = String.concat "" (List.init 64 (fun i -> Printf.sprintf "<i>%d</i>" i)) in
      let head =
        Printf.sprintf "POST /echo HTTP/1.0\r\nContent-Length: %d\r\n\r\n"
          (String.length body)
      in
      let half = String.length body / 2 in
      let response =
        raw_roundtrip ~port ~gap:0.05
          [ head; String.sub body 0 half;
            String.sub body half (String.length body - half) ]
      in
      check bool_ "200" true (contains response "200");
      check bool_ "full body echoed" true
        (contains response (String.sub body half (String.length body - half))))

let test_post_oversized () =
  with_server ~max_body:1024 echo_handler (fun server ->
      let port = Http.port server in
      let response =
        raw_roundtrip ~port
          [ "POST /echo HTTP/1.0\r\nContent-Length: 999999\r\n\r\n" ]
      in
      check bool_ "413" true (contains response "413"))

let test_post_missing_length () =
  with_server echo_handler (fun server ->
      let port = Http.port server in
      let response = raw_roundtrip ~port [ "POST /echo HTTP/1.0\r\n\r\n" ] in
      check bool_ "411" true (contains response "411"))

let test_post_bad_length_forms () =
  (* regression: int_of_string accepts OCaml literal forms ("0x10",
     "0o17", "1_0", leading '+'), which are not valid HTTP — only plain
     decimal digits may be honored *)
  with_server echo_handler (fun server ->
      let port = Http.port server in
      List.iter
        (fun v ->
          let response =
            raw_roundtrip ~port
              [ Printf.sprintf
                  "POST /echo HTTP/1.0\r\nContent-Length: %s\r\n\r\nxx" v ]
          in
          check bool_ (Printf.sprintf "%S rejected with 400" v) true
            (contains response "400"))
        [ "0x10"; "0o17"; "1_0"; "+2"; "-1"; "two"; "" ])

(* ---- regression: a peer that resets mid-exchange must not kill the
   process. Unix.write to a reset connection raises SIGPIPE unless the
   signal is ignored; before the fix each iteration here could terminate
   the whole test binary (in production: the whole node). ---- *)

let test_peer_reset_does_not_kill () =
  with_server echo_handler (fun server ->
      let port = Http.port server in
      let body = String.make 65536 'x' in
      let req =
        Printf.sprintf "POST /echo HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
          (String.length body) body
      in
      for _ = 1 to 5 do
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        (* linger 0: close sends RST, discarding the in-flight response,
           so the server's next write hits a dead connection *)
        Unix.setsockopt_optint sock Unix.SO_LINGER (Some 0);
        ignore (Unix.write_substring sock req 0 (String.length req));
        Unix.close sock
      done;
      Unix.sleepf 0.1;
      (* the pool survived every reset and still serves *)
      let status, body = Http.get ~port "/ping" in
      check int_ "alive after resets" 200 (Http.status_code status);
      check string_ "pong" "pong\n" body)

(* ---- regression: the full request head is drained before responding.

   The seed server stopped reading at the first '\n' and closed with the
   rest of the head unread; on Linux that close sends RST, which can
   destroy the in-flight response for any client sending ordinary
   multi-header requests (this exact shape failed before the fix). *)

let test_multi_header_request_intact () =
  with_server echo_handler (fun server ->
      let port = Http.port server in
      let headers =
        String.concat ""
          (List.init 24 (fun i ->
               Printf.sprintf "X-Header-%02d: %s\r\n" i (String.make 80 'v')))
      in
      let req = "GET /ping HTTP/1.0\r\n" ^ headers ^ "\r\n" in
      check bool_ "well over one read chunk" true (String.length req > 1024);
      for _ = 1 to 10 do
        let response = raw_roundtrip ~port [ req ] in
        check bool_ "status intact" true (contains response "200 OK");
        check bool_ "body intact" true (contains response "pong\n")
      done)

let test_head_too_large () =
  with_server echo_handler (fun server ->
      let port = Http.port server in
      let response =
        raw_roundtrip ~port
          [ "GET /ping HTTP/1.0\r\nX-Pad: " ^ String.make 9000 'x' ^ "\r\n\r\n" ]
      in
      check bool_ "431" true (contains response "431"))

(* ---- regression: a stalled client cannot wedge the endpoint.

   The seed server did blocking reads with no deadline on a single accept
   loop, so one connect-and-idle (slow loris) client blocked every
   subsequent scrape forever. Now each connection has a receive deadline
   (408 on expiry) and the accept pool keeps other connections moving
   meanwhile. *)

let test_slow_loris_gets_408 () =
  with_server ~read_timeout:0.3 echo_handler (fun server ->
      let port = Http.port server in
      (* send a partial request line and stall; the server must answer 408
         once the deadline passes *)
      let response = raw_roundtrip ~port [ "GET /pi" ] in
      check bool_ "408" true (contains response "408");
      check int_ "timeout counted" 1 (Http.timeouts server))

let test_slow_loris_does_not_block_scrapes () =
  with_server ~read_timeout:5. echo_handler (fun server ->
      let port = Http.port server in
      (* park an idle connection occupying one pool slot *)
      let idle = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close idle with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect idle (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          Unix.sleepf 0.05;
          (* a normal request must complete long before the idle
             connection's 5 s deadline *)
          let t0 = Unix.gettimeofday () in
          let status, body = Http.get ~port "/ping" in
          let dt = Unix.gettimeofday () -. t0 in
          check bool_ "200" true (contains status "200");
          check string_ "body" "pong\n" body;
          check bool_ "served while loris idles" true (dt < 2.)))

(* ---- status paths and pool concurrency ---- *)

let test_404_400_405 () =
  with_server echo_handler (fun server ->
      let port = Http.port server in
      let status, _ = Http.get ~port "/nope" in
      check int_ "404" 404 (Http.status_code status);
      let response = raw_roundtrip ~port [ "NONSENSE\r\n\r\n" ] in
      check bool_ "400" true (contains response "400");
      let response = raw_roundtrip ~port [ "BREW /ping HTTP/1.0\r\n\r\n" ] in
      check bool_ "405" true (contains response "405"))

let test_concurrent_scrapes () =
  with_server ~pool:4 echo_handler (fun server ->
      let port = Http.port server in
      let per_domain = 10 in
      let domains =
        Array.init 4 (fun _ ->
            Domain.spawn (fun () ->
                let ok = ref 0 in
                for _ = 1 to per_domain do
                  let status, body = Http.get ~port "/ping" in
                  if contains status "200" && body = "pong\n" then incr ok
                done;
                !ok))
      in
      let total = Array.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
      check int_ "all scrapes served" (4 * per_domain) total;
      check bool_ "counter saw them" true
        (Http.connections_served server >= 4 * per_domain))

(* ---- ingress: POST /enqueue/<queue> through the transactional path ---- *)

let ingress_program = {|
create queue orders kind basic mode persistent
  schema {
    element order { orderID }
    element orderID { text }
  }
create queue acks kind basic mode persistent
create rule acknowledge for orders
  if (//order) then
    do enqueue <ack>{string(//order/orderID)}</ack> into acks
|}

let test_ingress_enqueue () =
  let srv = S.deploy ingress_program in
  with_server (Ingress.handler srv) (fun server ->
      let port = Http.port server in
      let status, body =
        Http.post ~port "/enqueue/orders" "<order><orderID>7</orderID></order>"
      in
      check int_ "202 accepted" 202 (Http.status_code status);
      check bool_ "rid returned" true (contains body "rid=");
      (* malformed XML *)
      let status, _ = Http.post ~port "/enqueue/orders" "<order" in
      check int_ "400 bad xml" 400 (Http.status_code status);
      (* unknown queue *)
      let status, _ = Http.post ~port "/enqueue/nothere" "<x/>" in
      check int_ "404 unknown queue" 404 (Http.status_code status);
      (* schema violation: permanent admission rejection, not retryable *)
      let status, _ = Http.post ~port "/enqueue/orders" "<order><bogus/></order>" in
      check int_ "422 rejected" 422 (Http.status_code status);
      (* observability endpoints ride along *)
      let status, _ = Http.get ~port "/metrics" in
      check int_ "metrics" 200 (Http.status_code status);
      let status, body = Http.get ~port "/healthz" in
      check int_ "healthz" 200 (Http.status_code status);
      check string_ "healthz body" "ok\n" body;
      (* the accepted message processes through the engine *)
      ignore (S.run srv);
      check int_ "ack produced" 1 (List.length (S.queue_contents srv "acks")))

let test_ingress_batch_enqueue () =
  (* A body holding several concatenated documents is admitted as one
     batch: per-document transactions, per-document result report, one
     parser pass and one lock acquisition. *)
  let srv = S.deploy ingress_program in
  with_server (Ingress.handler srv) (fun server ->
      let port = Http.port server in
      let status, body =
        Http.post ~port "/enqueue/orders"
          "<order><orderID>1</orderID></order>\
           <order><orderID>2</orderID></order>\
           <!-- sep --><order><orderID>3</orderID></order>"
      in
      check int_ "202 all accepted" 202 (Http.status_code status);
      check bool_ "batch report" true (contains body "accepted=\"3\"");
      (* mixed batch: the schema violation rejects only its own document *)
      let status, body =
        Http.post ~port "/enqueue/orders"
          "<order><orderID>4</orderID></order><order><bogus/></order>"
      in
      check int_ "422 mixed outcome" 422 (Http.status_code status);
      check bool_ "one accepted" true (contains body "accepted=\"1\"");
      check bool_ "one rejected" true (contains body "rejected=\"1\"");
      (* whole batch against an unknown queue: plain 404 *)
      let status, _ = Http.post ~port "/enqueue/nothere" "<x/><y/>" in
      check int_ "404 unknown queue" 404 (Http.status_code status);
      (* malformed XML anywhere rejects the whole body before admission *)
      let status, _ =
        Http.post ~port "/enqueue/orders"
          "<order><orderID>9</orderID></order><oops"
      in
      check int_ "400 bad xml" 400 (Http.status_code status);
      ignore (S.run srv);
      check int_ "3 + 1 admitted documents produced acks" 4
        (List.length (S.queue_contents srv "acks")))

(* ---- admission gate at the HTTP layer: shed before the body ---- *)

let test_gate_shed_drains_and_closes () =
  (* a gate that sheds every enqueue POST: the 429 must carry
     Retry-After, set Connection: close, and the server must drain the
     declared body before responding so the client's in-flight write
     never dies on an RST *)
  let gate (req : Http.request) =
    match (req.Http.meth, req.Http.path) with
    | Http.POST, "/enqueue/q" ->
      Some
        (Http.response ~status:429
           ~headers:[ ("Retry-After", "3") ]
           "overloaded\n")
    | _ -> None
  in
  match Http.start ~gate ~port:0 echo_handler with
  | Error msg -> Alcotest.failf "http start: %s" msg
  | Ok server ->
    Fun.protect
      ~finally:(fun () -> Http.stop server)
      (fun () ->
        let port = Http.port server in
        (* large body: the drain has real work to do *)
        let big = String.make 200_000 'x' in
        let head, body = Http.post_full ~port "/enqueue/q" big in
        check int_ "shed answered 429" 429 (Http.status_code head);
        check bool_ "retry hint present" true
          (Http.header "Retry-After" head = Some "3");
        check bool_ "connection closed after shed" true
          (Http.header "Connection" head = Some "close");
        check bool_ "shed body names the condition" true
          (contains body "overloaded");
        (* ungated paths on the same server stay live *)
        let status, echoed = Http.post ~port "/echo" "<x/>" in
        check int_ "echo past the gate" 200 (Http.status_code status);
        check string_ "echo body intact" "<x/>" echoed;
        let status, _ = Http.get ~port "/ping" in
        check int_ "GET never gated" 200 (Http.status_code status))

let test_ingress_gate_end_to_end () =
  (* wire the real admission gate under the real ingress handler over a
     durable store: the first enqueue is admitted, the unsynced WAL bytes
     it leaves behind push saturation past the hard band (threshold 1
     byte), the next enqueue is shed 429, and a barrier reopens the
     valve.  Observability stays readable throughout. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "demaq-http-gate-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let store =
    Store.open_store
      (Store.durable_config
         ~sync:(Wal.Sync_batch { max_records = 1000; max_bytes = 0 })
         dir)
  in
  let srv = S.deploy ~store ingress_program in
  ignore
    (S.enable_gate
       ~cfg:{ Gate.default_config with Gate.max_pending = max_int; max_wal_bytes = 1 }
       srv);
  match
    Http.start ~gate:(Ingress.gate srv) ~port:0 (Ingress.handler srv)
  with
  | Error msg -> Alcotest.failf "http start: %s" msg
  | Ok server ->
    Fun.protect
      ~finally:(fun () ->
        Http.stop server;
        Store.close store)
      (fun () ->
        let port = Http.port server in
        let status, _ =
          Http.post ~port "/enqueue/orders" "<order><orderID>1</orderID></order>"
        in
        check int_ "first enqueue admitted" 202 (Http.status_code status);
        let head, _ =
          Http.post_full ~port "/enqueue/orders"
            "<order><orderID>2</orderID></order>"
        in
        check int_ "unsynced log sheds the next" 429 (Http.status_code head);
        check bool_ "transient marker present" true
          (Http.header "Retry-After" head <> None);
        (* the node must stay observable precisely while shedding *)
        let status, _ = Http.get ~port "/metrics" in
        check int_ "metrics scrape during overload" 200
          (Http.status_code status);
        (* a barrier retires the unsynced bytes: traffic flows again *)
        ignore (Store.barrier store);
        let status, _ =
          Http.post ~port "/enqueue/orders" "<order><orderID>3</orderID></order>"
        in
        check int_ "post-barrier enqueue admitted" 202 (Http.status_code status);
        ignore (S.run srv);
        check int_ "only admitted messages produced acks" 2
          (List.length (S.queue_contents srv "acks")))

(* ---- loadgen smoke: low rate against a live node ---- *)

let test_loadgen_smoke () =
  let srv = S.deploy ingress_program in
  with_server (Ingress.handler srv) (fun server ->
      let port = Http.port server in
      (* pump domain: drain the dispatcher while requests arrive *)
      let stop = Atomic.make false in
      let pump =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              ignore (S.run srv);
              Unix.sleepf 0.001
            done)
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Domain.join pump)
        (fun () ->
          let cfg =
            {
              Loadgen.default_config with
              Loadgen.port;
              rate = 50.;
              duration = 2.;
              arrival = Loadgen.Constant;
            }
          in
          let gen i =
            {
              Loadgen.sp_path = "/enqueue/orders";
              sp_body = Printf.sprintf "<order><orderID>%d</orderID></order>" i;
              sp_flow = (if i mod 2 = 0 then Printf.sprintf "lg-%d" i else "");
            }
          in
          let r = Loadgen.run cfg gen in
          check int_ "100 arrivals at 50/s for 2s" 100 r.Loadgen.r_offered;
          check int_ "nothing dropped" 0 r.Loadgen.r_dropped;
          check int_ "no errors" 0 r.Loadgen.r_errors;
          check int_ "all accepted" r.Loadgen.r_sent r.Loadgen.r_ok;
          check bool_ "p50 populated" true (r.Loadgen.r_p50_ms > 0.);
          check bool_ "percentiles ordered" true
            (r.Loadgen.r_p50_ms <= r.Loadgen.r_p99_ms
             && r.Loadgen.r_p99_ms <= r.Loadgen.r_p999_ms
             && r.Loadgen.r_p999_ms <= r.Loadgen.r_max_ms +. 0.001);
          (* every 202 really enqueued: drain and count the acks *)
          Unix.sleepf 0.05;
          ignore (S.run srv);
          check int_ "every accepted request processed" r.Loadgen.r_ok
            (List.length (S.queue_contents srv "acks"))))

(* ---- flow endpoints: /flows and /flow/<rid|flow id> ---- *)

let test_flow_endpoints () =
  let srv = S.deploy ingress_program in
  with_server (Ingress.handler srv) (fun server ->
      let port = Http.port server in
      let _, body =
        Http.post ~port "/enqueue/orders" "<order><orderID>9</orderID></order>"
      in
      let rid = Scanf.sscanf body "<accepted rid=\"%d\"" Fun.id in
      ignore (S.run srv);
      let flow =
        match S.flow_id_of_rid srv rid with
        | Some f -> f
        | None -> Alcotest.fail "no flow for the injected root"
      in
      let status, body = Http.get ~port "/flows" in
      check int_ "flows 200" 200 (Http.status_code status);
      check bool_ "root's flow listed" true
        (contains body (Printf.sprintf "\"flow\":\"%s\"" flow));
      let status, body = Http.get ~port (Printf.sprintf "/flow/%d" rid) in
      check int_ "flow by rid 200" 200 (Http.status_code status);
      check bool_ "tree holds the root" true
        (contains body (Printf.sprintf "\"rid\":%d" rid));
      let status, body = Http.get ~port "/flow/999999" in
      check int_ "unknown rid 404" 404 (Http.status_code status);
      check bool_ "unknown rid named" true (contains body "unknown rid");
      let status, body = Http.get ~port "/flow/no-such-flow" in
      check int_ "unknown flow 404" 404 (Http.status_code status);
      check bool_ "unknown flow named" true (contains body "unknown flow"))

(* ---- one read buffer per domain ---- *)

(* Four client domains POST bodies of 1-12 KiB, over a third of them
   larger than the 8 KiB per-domain read buffer, to a pool of four
   accept domains; every echo must come back byte-exact, so no request
   ever sees another's bytes. *)
let test_pool_echo_exact () =
  with_server ~pool:4 echo_handler (fun server ->
      let port = Http.port server in
      let per_domain = 200 in
      let body d i =
        let len = 1024 + ((i * 997) + (d * 4099)) mod ((11 * 1024) + 1) in
        let tag = Printf.sprintf "<d%d r%d>" d i in
        String.init len (fun j ->
            if j < String.length tag then tag.[j]
            else Char.chr (Char.code 'a' + ((d * 7) + (i * 13) + j) mod 26))
      in
      let domains =
        Array.init 4 (fun d ->
            Domain.spawn (fun () ->
                let exact = ref 0 and sizes = ref 0 in
                for i = 1 to per_domain do
                  let b = body d i in
                  let status, got = Http.post ~port "/echo" b in
                  if Http.status_code status = 200 && String.equal got b then incr exact;
                  sizes := max !sizes (String.length b)
                done;
                (!exact, !sizes)))
      in
      let results = Array.map Domain.join domains in
      Array.iteri
        (fun d (exact, largest) ->
          check int_ (Printf.sprintf "domain %d: every echo exact" d) per_domain exact;
          check bool_ "bodies exceed the read buffer" true (largest > 8192))
        results)

(* The read buffer is per domain, which is only safe while no code in
   lib/ or bin/ runs systhreads: two threads of one domain would share
   it. No dune file there may link the threads library. *)
let test_no_systhreads () =
  let root =
    match List.find_opt (fun r -> Sys.file_exists (Filename.concat r "lib/net/dune")) [ ".."; "." ] with
    | Some r -> r
    | None -> Alcotest.fail "lib/net/dune not found"
  in
  let lib = Filename.concat root "lib" in
  let dune_files =
    Filename.concat root "bin/dune"
    :: (Sys.readdir lib |> Array.to_list
       |> List.map (fun d -> Filename.concat (Filename.concat lib d) "dune")
       |> List.filter Sys.file_exists)
  in
  check bool_ "lib/net, lib/engine and bin are checked" true (List.length dune_files >= 10);
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin f In_channel.input_all in
      check bool_ (f ^ " does not link threads") false (contains text "threads"))
    dune_files

let suite =
  [
    ("post roundtrip exact", `Quick, test_post_exact);
    ("post body split across packets", `Quick, test_post_split_body);
    ("post oversized content-length", `Quick, test_post_oversized);
    ("post missing content-length", `Quick, test_post_missing_length);
    ("post non-decimal content-length", `Quick, test_post_bad_length_forms);
    ("peer reset does not kill the process", `Quick,
     test_peer_reset_does_not_kill);
    ("multi-header request gets intact response", `Quick,
     test_multi_header_request_intact);
    ("oversized head refused", `Quick, test_head_too_large);
    ("slow loris answered 408", `Quick, test_slow_loris_gets_408);
    ("slow loris does not block scrapes", `Quick,
     test_slow_loris_does_not_block_scrapes);
    ("404/400/405 paths", `Quick, test_404_400_405);
    ("concurrent scrapes under the accept pool", `Quick,
     test_concurrent_scrapes);
    ("ingress enqueue paths", `Quick, test_ingress_enqueue);
    ("ingress batch enqueue", `Quick, test_ingress_batch_enqueue);
    ("gate shed drains body, closes connection", `Quick,
     test_gate_shed_drains_and_closes);
    ("ingress gate end to end over durable store", `Quick,
     test_ingress_gate_end_to_end);
    ("loadgen smoke", `Slow, test_loadgen_smoke);
    ("flow endpoints", `Quick, test_flow_endpoints);
    ("pool of four echoes 1-12 KiB bodies exactly", `Quick, test_pool_echo_exact);
    ("no dune file in lib/ or bin/ links threads", `Quick, test_no_systhreads);
  ]
