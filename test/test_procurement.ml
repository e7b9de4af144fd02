(* The paper's running example: the distributed procurement scenario of
   §3 (Figs. 3-10), executed end to end on the engine.

   - Fig. 3/4: the workflow and message flow between crm, finance, legal,
     supplier, customer queues.
   - Fig. 5 (Example 3.1): forking the three checks.
   - Fig. 6 (Example 3.2): credit rating against the invoices queue.
   - Fig. 7 (Example 3.3): joining the parallel checks with a slicing.
   - Fig. 8: resetting the slice after completion.
   - Fig. 9 (Example 3.4): invoice retention + reminders via an echo queue.
   - Fig. 10 (Example 3.5): error handling for disconnected endpoints.

   The QML below follows the paper's listings closely; where the paper
   elides code ("..." / "(:problems:)") we fill in the obvious content.
   One deliberate deviation, noted inline: joinOrder carries a
   "not yet answered" guard so the offer is produced exactly once (the
   paper's listing would fire again when the offer message itself arrives
   in the slice). *)

module Tree = Demaq.Xml.Tree
module Value = Demaq.Value
module Message = Demaq.Message
module Net = Demaq.Network
module S = Demaq.Server
module Defs = Demaq.Mq.Defs

let check = Alcotest.check
let bool_ = Alcotest.bool
let int_ = Alcotest.int
let string_ = Alcotest.string

let xml = Demaq.xml

let program = {|
(: ---- queues (Fig. 1 bottom pane, §2.1) ---- :)
create queue crm kind basic mode persistent
create queue finance kind basic mode persistent
create queue legal kind basic mode persistent
create queue invoices kind basic mode persistent
create queue supplier kind outgoingGateway mode persistent
  interface supplier.wsdl port CapacityRequestPort
  using WS-ReliableMessaging policy wsrmpol.xml
create queue supplierIn kind incomingGateway mode persistent
create queue customer kind outgoingGateway mode persistent
create queue postalService kind outgoingGateway mode persistent
create queue echoQueue kind echo mode persistent
create queue crmErrors kind basic mode persistent

(: ---- properties and slicings (§2.2, Fig. 7, Fig. 9) ---- :)
create property requestID as xs:string fixed
  queue crm, customer value //requestID
  queue supplierIn value //requestID
create slicing requestMsgs on requestID

create property messageRequestID as xs:string fixed
  queue invoices, finance value //requestID
create slicing invoiceRetention on messageRequestID

(: ---- Fig. 5 / Example 3.1: fork the three checks ---- :)
create rule forkChecks for crm
  if (//offerRequest) then
    let $rid := string(//offerRequest/requestID)
    let $cid := string(//offerRequest/customerID)
    return (
      do enqueue <creditCheck><requestID>{$rid}</requestID><customerID>{$cid}</customerID></creditCheck>
        into finance,
      do enqueue <restrictionCheck><requestID>{$rid}</requestID><items>{//offerRequest/items/item}</items></restrictionCheck>
        into legal,
      do enqueue <capacityRequest><requestID>{$rid}</requestID></capacityRequest>
        into supplier
        with Sender value "demaq-node"
    )

(: ---- Fig. 6 / Example 3.2: credit rating against the invoices queue ---- :)
create rule creditRating for finance
  if (//creditCheck) then
    let $cid := string(//creditCheck/customerID)
    let $unpaid := qs:queue("invoices")[//customerID = $cid][not(//paid)]
    return
      if (count($unpaid) < 2) then
        do enqueue <customerInfoResult><requestID>{string(//creditCheck/requestID)}</requestID><accept/></customerInfoResult>
          into crm
      else
        do enqueue <customerInfoResult><requestID>{string(//creditCheck/requestID)}</requestID><reject/></customerInfoResult>
          into crm

create rule exportRestrictions for legal
  if (//restrictionCheck) then
    do enqueue <restrictionsResult>
        <requestID>{string(//restrictionCheck/requestID)}</requestID>
        {//restrictionCheck/items/item[. = "plutonium"]/<restrictedItem/>}
      </restrictionsResult> into crm

create rule capacityReply for supplierIn
  if (//capacityResult) then
    do enqueue <capacityResult><requestID>{string(//requestID)}</requestID>{//accept}{//reject}</capacityResult>
      into crm

(: ---- Fig. 7 / Example 3.3: join the parallel control flows ---- :)
create rule joinOrder for requestMsgs
  if (qs:slice()[/customerInfoResult] and
      qs:slice()[/restrictionsResult] and
      qs:slice()[/capacityResult] and
      (: deviation: fire exactly once per request :)
      not(qs:slice()[/offer] or qs:slice()[/refusal])) then
    if (qs:slice()[/customerInfoResult/accept] and
        not(qs:slice()[/restrictionsResult//restrictedItem]) and
        qs:slice()[/capacityResult//accept]) then
      let $request := qs:queue("crm")/offerRequest
      let $items := $request[//requestID = qs:slicekey()]/items
      let $pricelist := collection("crm")[/pricelist]
      let $offer := <offer>
          <requestID>{string(qs:slicekey())}</requestID>
          {$items}
          <total>{sum(for $i in $items/item return number($pricelist//price[@item = string($i)]))}</total>
        </offer>
      return do enqueue $offer into customer
    else (: problems :)
      do enqueue <refusal><requestID>{string(qs:slicekey())}</requestID></refusal>
        into customer

(: ---- Fig. 8: reset once answered ---- :)
create rule cleanupRequest for requestMsgs
  if (qs:slice()[/offer] or qs:slice()[/refusal]) then
    do reset

(: ---- Fig. 9 / Example 3.4: invoice retention and payment reminders ---- :)
create rule resetPayedInvoices for invoiceRetention
  if (qs:slice()[//timeoutNotification]
      and qs:slice()[/paymentConfirmation]) then
    do reset

create rule startPaymentTimer for invoices
  if (//invoice) then
    do enqueue <timeoutNotification><requestID>{string(//requestID)}</requestID></timeoutNotification>
      into echoQueue
      with timeout value 30
      with target value "finance"

create rule checkPayment for finance
  if (//timeoutNotification) then
    let $mRID := qs:message()//requestID
    let $payments := qs:queue()[/paymentConfirmation]
    return
      if (not($payments[//requestID = $mRID])) then
        let $invoice := qs:queue("invoices")[//requestID = $mRID]
        let $reminder := <reminder>
            <requestID>{string($mRID)}</requestID>
            {$invoice//amount}
          </reminder>
        return do enqueue $reminder into customer
      else ()

(: ---- Fig. 10 / Example 3.5: error handling ---- :)
create rule confirmOrder for crm errorqueue crmErrors
  if (//customerOrder) then (: send confirmation :)
    let $confirmation := <confirmation>{//orderID}</confirmation>
    return do enqueue $confirmation into customer

create rule deadLink for crmErrors
  if (/error/disconnectedTransport) then
    (: send confirmation via snail mail :)
    let $orders := qs:queue("crm")//customerOrder
    let $initialOrderID := /error/initialMessage//orderID
    let $address := $orders[orderID = $initialOrderID]/address
    let $requestMail := <sendMessage>{$address}{/error/initialMessage/*}</sendMessage>
    return do enqueue $requestMail into postalService
|}

(* ---- fixture: the remote partners of Fig. 3 ---- *)

type world = {
  srv : S.t;
  net : Net.t;
  customer_inbox : Tree.tree list ref;
  postal_inbox : Tree.tree list ref;
  supplier_accepts : bool ref;
}

let make_world () =
  let net = Net.create () in
  let customer_inbox = ref [] in
  let postal_inbox = ref [] in
  let supplier_accepts = ref true in
  Net.register net ~name:"supplier" ~handler:(fun ~sender:_ body ->
      match Tree.find_child body "requestID" with
      | Some rid ->
        [ Tree.elem "capacityResult"
            [ rid; Tree.elem (if !supplier_accepts then "accept" else "reject") [] ] ]
      | None -> []);
  Net.register net ~name:"customer" ~handler:(fun ~sender:_ body ->
      customer_inbox := !customer_inbox @ [ body ];
      []);
  Net.register net ~name:"postalService" ~handler:(fun ~sender:_ body ->
      postal_inbox := !postal_inbox @ [ body ];
      []);
  let srv = S.deploy ~network:net program in
  S.bind_gateway srv ~queue:"supplier" ~endpoint:"supplier" ~replies_to:"supplierIn" ();
  S.bind_gateway srv ~queue:"customer" ~endpoint:"customer" ();
  S.bind_gateway srv ~queue:"postalService" ~endpoint:"postalService" ();
  (* master data for Fig. 7's collection("crm") *)
  S.set_collection srv "crm"
    [ xml "<pricelist><price item=\"glue\">5</price><price item=\"paint\">12</price><price item=\"plutonium\">100000</price></pricelist>" ];
  { srv; net; customer_inbox; postal_inbox; supplier_accepts }

let offer_request ?(items = [ "glue"; "paint" ]) rid =
  Printf.sprintf
    "<offerRequest><requestID>%s</requestID><customerID>c7</customerID><items>%s</items></offerRequest>"
    rid
    (String.concat "" (List.map (fun i -> "<item>" ^ i ^ "</item>") items))

let inject_ok w queue payload =
  match S.inject w.srv ~queue (xml payload) with
  | Ok m -> m
  | Error e -> Alcotest.failf "inject: %s" (Demaq.Mq.Queue_manager.error_to_string e)

let names trees = List.map (fun t ->
    match Tree.element_name t with
    | Some n -> Demaq.Xml.Name.local n
    | None -> "?") trees

(* ---- the happy path: Figs. 3, 4, 5, 6, 7 ---- *)

let test_happy_path_offer () =
  let w = make_world () in
  ignore (inject_ok w "crm" (offer_request "r1"));
  ignore (S.run w.srv);
  (* Fig. 4's flow: one offer reaches the customer *)
  (match !(w.customer_inbox) with
   | [ offer ] ->
     check string_ "offer element" "offer"
       (Demaq.Xml.Name.local (Option.get (Tree.element_name offer)));
     check string_ "request correlated" "r1"
       (Tree.tree_string_value (Option.get (Tree.find_child offer "requestID")));
     (* price list join: glue 5 + paint 12 *)
     check string_ "total priced from collection" "17"
       (Tree.tree_string_value (Option.get (Tree.find_child offer "total")))
   | l -> Alcotest.failf "expected one offer, got %s" (String.concat "," (names l)));
  (* intermediate queues saw the expected messages (Fig. 4) *)
  let queue_elems q =
    List.map (fun m ->
        Demaq.Xml.Name.local (Option.get (Tree.element_name (Message.body m))))
      (S.queue_contents w.srv q)
  in
  check bool_ "finance got creditCheck" true (List.mem "creditCheck" (queue_elems "finance"));
  check bool_ "legal got restrictionCheck" true
    (List.mem "restrictionCheck" (queue_elems "legal"));
  check bool_ "crm collected the three results" true
    (List.sort compare
       (List.filter (fun n -> n <> "offerRequest") (queue_elems "crm"))
     = [ "capacityResult"; "customerInfoResult"; "restrictionsResult" ])

let test_refusal_on_restricted_item () =
  let w = make_world () in
  ignore (inject_ok w "crm" (offer_request ~items:[ "glue"; "plutonium" ] "r2"));
  ignore (S.run w.srv);
  match !(w.customer_inbox) with
  | [ t ] -> check string_ "refusal" "refusal"
      (Demaq.Xml.Name.local (Option.get (Tree.element_name t)))
  | l -> Alcotest.failf "expected one refusal, got %s" (String.concat "," (names l))

let test_refusal_on_supplier_reject () =
  let w = make_world () in
  w.supplier_accepts := false;
  ignore (inject_ok w "crm" (offer_request "r3"));
  ignore (S.run w.srv);
  check bool_ "refused" true (names !(w.customer_inbox) = [ "refusal" ])

let test_refusal_on_bad_credit () =
  let w = make_world () in
  (* Fig. 6: two unpaid invoices for the customer block the order *)
  ignore (inject_ok w "invoices" "<invoice><requestID>old1</requestID><customerID>c7</customerID><amount>10</amount></invoice>");
  ignore (inject_ok w "invoices" "<invoice><requestID>old2</requestID><customerID>c7</customerID><amount>20</amount></invoice>");
  ignore (S.run w.srv);
  S.advance_time w.srv 1000;  (* let their payment timers fire and pass *)
  ignore (S.run w.srv);
  w.customer_inbox := [];
  ignore (inject_ok w "crm" (offer_request "r4"));
  ignore (S.run w.srv);
  check bool_ "refusal for bad credit" true (List.mem "refusal" (names !(w.customer_inbox)))

let test_exactly_one_offer () =
  let w = make_world () in
  ignore (inject_ok w "crm" (offer_request "r5"));
  ignore (S.run w.srv);
  ignore (S.run w.srv);
  check int_ "one message at customer" 1 (List.length !(w.customer_inbox))

let test_parallel_requests_isolated () =
  (* Fig. 2: several transactions, each slice isolated by its key *)
  let w = make_world () in
  List.iter (fun rid -> ignore (inject_ok w "crm" (offer_request rid)))
    [ "a"; "b"; "c"; "d" ];
  ignore (S.run w.srv);
  check int_ "four answers" 4 (List.length !(w.customer_inbox));
  let rids =
    List.sort compare
      (List.map (fun t ->
           Tree.tree_string_value (Option.get (Tree.find_child t "requestID")))
         !(w.customer_inbox))
  in
  check bool_ "all four correlated" true (rids = [ "a"; "b"; "c"; "d" ])

(* ---- Fig. 8: retention after the slice reset ---- *)

let test_cleanup_and_gc () =
  let w = make_world () in
  ignore (inject_ok w "crm" (offer_request "r6"));
  ignore (S.run w.srv);
  (* cleanupRequest has reset the slice; all request messages are
     processed, so the GC can drop them (§2.3.3) *)
  let collected = S.gc w.srv in
  check bool_ "slice members collected" true (collected >= 4);
  check int_ "crm drained" 0 (List.length (S.queue_contents w.srv "crm"))

let test_retention_before_answer () =
  let w = make_world () in
  (* without the capacity reply the slice stays live: nothing may be GCed *)
  Net.set_connected w.net "supplier" false;
  ignore (inject_ok w "crm" (offer_request "r7"));
  ignore (S.run w.srv);
  check int_ "no answer yet" 0 (List.length !(w.customer_inbox));
  ignore (S.gc w.srv);
  check bool_ "request retained" true
    (List.exists
       (fun m ->
         Demaq.Xml.Name.local (Option.get (Tree.element_name (Message.body m)))
         = "offerRequest")
       (S.queue_contents w.srv "crm"))

(* ---- Fig. 9: payment reminders through the echo queue ---- *)

let test_payment_reminder () =
  let w = make_world () in
  ignore (inject_ok w "invoices" "<invoice><requestID>inv1</requestID><customerID>c9</customerID><amount>250</amount></invoice>");
  ignore (S.run w.srv);
  (* no payment arrives; the timeout fires after 30 ticks *)
  S.advance_time w.srv 31;
  ignore (S.run w.srv);
  (match !(w.customer_inbox) with
   | [ reminder ] ->
     check string_ "reminder sent" "reminder"
       (Demaq.Xml.Name.local (Option.get (Tree.element_name reminder)));
     check string_ "invoice data included" "250"
       (Tree.tree_string_value (Option.get (Tree.find_child reminder "amount")))
   | l -> Alcotest.failf "expected one reminder, got %s" (String.concat "," (names l)))

let test_no_reminder_when_paid () =
  let w = make_world () in
  ignore (inject_ok w "invoices" "<invoice><requestID>inv2</requestID><customerID>c9</customerID><amount>99</amount></invoice>");
  ignore (S.run w.srv);
  (* the payment confirmation arrives before the timeout *)
  ignore (inject_ok w "finance" "<paymentConfirmation><requestID>inv2</requestID></paymentConfirmation>");
  ignore (S.run w.srv);
  S.advance_time w.srv 31;
  ignore (S.run w.srv);
  check int_ "no reminder" 0 (List.length !(w.customer_inbox));
  (* Fig. 9's retention: once both timeout and payment are in the slice,
     resetPayedInvoices resets it and the GC can clean up *)
  ignore (S.gc w.srv);
  check int_ "invoices drained" 0 (List.length (S.queue_contents w.srv "invoices"))

(* ---- Fig. 10: the dead-link compensation ---- *)

let test_dead_link_snail_mail () =
  let w = make_world () in
  Net.set_connected w.net "customer" false;
  ignore
    (inject_ok w "crm"
       "<customerOrder><orderID>o77</orderID><address>12 Main St</address></customerOrder>");
  ignore (S.run w.srv);
  (* electronic confirmation failed; deadLink reroutes via postalService *)
  check int_ "no electronic delivery" 0 (List.length !(w.customer_inbox));
  (match !(w.postal_inbox) with
   | [ mail ] ->
     check string_ "sendMessage element" "sendMessage"
       (Demaq.Xml.Name.local (Option.get (Tree.element_name mail)));
     let text = Demaq.xml_to_string mail in
     let has sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
       go 0
     in
     check bool_ "address recovered from crm queue" true (has "12 Main St");
     check bool_ "original confirmation embedded" true (has "<confirmation>")
   | l -> Alcotest.failf "expected one letter, got %s" (String.concat "," (names l)));
  (* the error itself is documented in crmErrors *)
  check int_ "error message recorded" 1 (List.length (S.queue_contents w.srv "crmErrors"))

let test_gateway_uses_reliable_messaging () =
  (* the supplier gateway declares WS-ReliableMessaging: a lossy wire must
     still deliver the capacity request *)
  let w = make_world () in
  Net.set_drop_rate w.net "supplier" 0.5;
  ignore (inject_ok w "crm" (offer_request "r8"));
  ignore (S.run w.srv);
  check bool_ "offer still produced" true (List.length !(w.customer_inbox) = 1)

let test_reliable_retries_exhausted () =
  (* a fully dead wire: the transport retries a bounded number of times per
     transmission, the engine re-arms the transmission with backoff a
     bounded number of times, and only then is the delivery timeout
     reported as an error message (no silent drop) *)
  let w = make_world () in
  Net.set_drop_rate w.net "supplier" 1.0;
  ignore (inject_ok w "crm" (offer_request "r8x"));
  ignore (S.run w.srv);
  check int_ "wire-level retries used" 5 (Net.stats w.net).Net.attempts;
  for _ = 1 to 8 do
    S.advance_time w.srv 10;
    ignore (S.run w.srv)
  done;
  let retries = Demaq.Engine.Externalizer.transmit_retries in
  check int_ "engine-level retries used" (5 * (retries + 1)) (Net.stats w.net).Net.attempts;
  check bool_ "timeout surfaced as error" true ((S.stats w.srv).S.errors_raised >= 1);
  check int_ "dead-lettered" 1 (S.stats w.srv).S.dead_letters;
  check int_ "no answer" 0 (List.length !(w.customer_inbox))

let test_stats_plausible () =
  let w = make_world () in
  ignore (inject_ok w "crm" (offer_request "r9"));
  ignore (S.run w.srv);
  let st = S.stats w.srv in
  check bool_ "messages processed" true (st.S.processed >= 7);
  check bool_ "rules evaluated" true (st.S.rule_evaluations >= st.S.processed);
  check int_ "no errors on happy path" 0 st.S.errors_raised

let suite =
  [
    ("happy path produces a priced offer (Figs. 3-7)", `Quick, test_happy_path_offer);
    ("restricted item refusal (Fig. 7 else)", `Quick, test_refusal_on_restricted_item);
    ("supplier reject refusal", `Quick, test_refusal_on_supplier_reject);
    ("bad credit refusal (Fig. 6)", `Quick, test_refusal_on_bad_credit);
    ("exactly one answer per request", `Quick, test_exactly_one_offer);
    ("parallel requests isolated (Fig. 2)", `Quick, test_parallel_requests_isolated);
    ("cleanup + retention GC (Fig. 8)", `Quick, test_cleanup_and_gc);
    ("retention while undecided", `Quick, test_retention_before_answer);
    ("payment reminder on timeout (Fig. 9)", `Quick, test_payment_reminder);
    ("no reminder when paid (Fig. 9)", `Quick, test_no_reminder_when_paid);
    ("dead link snail mail (Fig. 10)", `Quick, test_dead_link_snail_mail);
    ("reliable messaging on lossy wire (§2.1.2)", `Quick, test_gateway_uses_reliable_messaging);
    ("reliable retries exhausted", `Quick, test_reliable_retries_exhausted);
    ("pipeline statistics", `Quick, test_stats_plausible);
  ]
