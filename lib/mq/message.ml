(* The queue layer's view of a stored message: parsed payload, typed
   properties, and slice memberships. Serialized into the store's opaque
   [extra] blob. *)

module Tree = Demaq_xml.Tree
module Value = Demaq_xquery.Value
module Codec = Demaq_store.Codec

type membership = {
  m_slicing : string;
  m_key : string;  (* string-encoded slice key *)
  m_lifetime : int;  (* slice lifetime at insertion (§2.3.2) *)
}

type provenance = {
  p_flow : string;  (* flow id minted at the cascade's origin; "" = none *)
  p_parent : int;  (* rid of the causing message; -1 = cascade root *)
  p_cause : string;  (* rule that enqueued this, or an origin kind *)
}

let no_provenance = { p_flow = ""; p_parent = -1; p_cause = "" }
let is_root p = p.p_parent < 0

type t = {
  rid : int;
  queue : string;
  raw : string Lazy.t;  (* stored payload bytes (binary bxml or legacy text) *)
  body : Tree.tree Lazy.t;  (* decoded on demand from [raw] *)
  props : (string * Value.atomic) list;
  memberships : membership list;
  prov : provenance;
  enqueued_at : int;
  processed : bool;
}

let body m = Lazy.force m.body
let raw m = Lazy.force m.raw
let body_forced m = Lazy.is_val m.body

let property m name = List.assoc_opt name m.props

let key_string (a : Value.atomic) = Value.string_of_atomic a

(* ---- extra-blob codec ---- *)

let put_atomic buf (a : Value.atomic) =
  match a with
  | Value.Boolean b ->
    Buffer.add_char buf 'b';
    Codec.put_bool buf b
  | Value.Integer i ->
    Buffer.add_char buf 'i';
    Codec.put_int buf i
  | Value.Decimal f ->
    Buffer.add_char buf 'd';
    Codec.put_string buf (Printf.sprintf "%h" f)
  | Value.String s ->
    Buffer.add_char buf 's';
    Codec.put_string buf s
  | Value.Untyped s ->
    Buffer.add_char buf 'u';
    Codec.put_string buf s

let get_atomic r =
  match Codec.get_char r with
  | 'b' -> Value.Boolean (Codec.get_bool r)
  | 'i' -> Value.Integer (Codec.get_int r)
  | 'd' -> Value.Decimal (float_of_string (Codec.get_string r))
  | 's' -> Value.String (Codec.get_string r)
  | 'u' -> Value.Untyped (Codec.get_string r)
  | c -> raise (Codec.Decode_error (Printf.sprintf "bad atomic tag %C" c))

let encode_extra ?(provenance = no_provenance) ~props ~memberships () =
  let buf = Buffer.create 128 in
  Codec.put_list buf
    (fun buf (name, a) ->
      Codec.put_string buf name;
      put_atomic buf a)
    props;
  Codec.put_list buf
    (fun buf m ->
      Codec.put_string buf m.m_slicing;
      Codec.put_string buf m.m_key;
      Codec.put_int buf m.m_lifetime)
    memberships;
  (* provenance rides at the tail so blobs written before flow tracing
     landed still decode: [decode_extra] probes [at_end] *)
  Codec.put_string buf provenance.p_flow;
  Codec.put_int buf provenance.p_parent;
  Codec.put_string buf provenance.p_cause;
  Buffer.contents buf

let decode_extra extra =
  let r = Codec.reader extra in
  let props =
    Codec.get_list r (fun r ->
        let name = Codec.get_string r in
        let a = get_atomic r in
        (name, a))
  in
  let memberships =
    Codec.get_list r (fun r ->
        let m_slicing = Codec.get_string r in
        let m_key = Codec.get_string r in
        let m_lifetime = Codec.get_int r in
        { m_slicing; m_key; m_lifetime })
  in
  let provenance =
    if Codec.at_end r then no_provenance
    else
      let p_flow = Codec.get_string r in
      let p_parent = Codec.get_int r in
      let p_cause = Codec.get_string r in
      { p_flow; p_parent; p_cause }
  in
  (props, memberships, provenance)

let of_store store (sm : Demaq_store.Message_store.message) =
  let props, memberships, prov = decode_extra sm.extra in
  (* spilled bodies are faulted in through the buffer pool on first
     access and then held by this record's lazy cell; [raw] stays
     un-forced until either an admission scan or a decode needs it *)
  let raw = lazy (Demaq_store.Message_store.payload store sm) in
  {
    rid = sm.rid;
    queue = sm.queue;
    raw;
    body = lazy (Demaq_xml.Bxml.decode_any (Lazy.force raw));
    props;
    memberships;
    prov;
    enqueued_at = sm.enqueued_at;
    processed = sm.processed;
  }
