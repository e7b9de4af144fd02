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

type t = {
  rid : int;
  queue : string;
  raw : string Lazy.t;  (* stored payload bytes (binary bxml or legacy text) *)
  body : Tree.tree Lazy.t;  (* decoded on demand from [raw] *)
  doc : Tree.node Lazy.t;  (* the document node built over [body] *)
  props : (string * Value.atomic) list;
  memberships : membership list;
  prov : provenance;
  enqueued_at : int;
  processed : bool;
}

let body m = Lazy.force m.body
let doc m = Lazy.force m.doc
let raw m = Lazy.force m.raw
let body_forced m = Lazy.is_val m.body

let property m name = List.assoc_opt name m.props

let key_string (a : Value.atomic) = Value.string_of_atomic a

(* ---- extra-blob codec ---- *)

module W = Codec.Writer

let put_atomic w (a : Value.atomic) =
  match a with
  | Value.Boolean b ->
    W.char w 'b';
    W.bool w b
  | Value.Integer i ->
    W.char w 'i';
    W.int w i
  | Value.Decimal f ->
    W.char w 'd';
    W.string w (Printf.sprintf "%h" f)
  | Value.String s ->
    W.char w 's';
    W.string w s
  | Value.Untyped s ->
    W.char w 'u';
    W.string w s

let get_atomic r =
  match Codec.get_char r with
  | 'b' -> Value.Boolean (Codec.get_bool r)
  | 'i' -> Value.Integer (Codec.get_int r)
  | 'd' -> Value.Decimal (float_of_string (Codec.get_string r))
  | 's' -> Value.String (Codec.get_string r)
  | 'u' -> Value.Untyped (Codec.get_string r)
  | c -> raise (Codec.Decode_error (Printf.sprintf "bad atomic tag %C" c))

(* Per-domain scratch for [encode_extra]: cleared, never shrunk below
   [scratch_keep], so a typical blob costs one copy and no regrowth. *)
let scratch_keep = 4096
let scratch_key = Domain.DLS.new_key (fun () -> W.create 256)

let encode_extra ?(provenance = no_provenance) ~props ~memberships () =
  let w = Domain.DLS.get scratch_key in
  W.clear w;
  W.list w
    (fun w (name, a) ->
      W.string w name;
      put_atomic w a)
    props;
  W.list w
    (fun w m ->
      W.string w m.m_slicing;
      W.string w m.m_key;
      W.int w m.m_lifetime)
    memberships;
  (* provenance rides at the tail so blobs written before flow tracing
     landed still decode: [decode_extra] probes [at_end] *)
  W.string w provenance.p_flow;
  W.int w provenance.p_parent;
  W.string w provenance.p_cause;
  let blob = W.contents w in
  W.shrink w ~keep:scratch_keep;
  blob

let get_memberships r =
  Codec.get_list r (fun r ->
      let m_slicing = Codec.get_string r in
      let m_key = Codec.get_string r in
      let m_lifetime = Codec.get_int r in
      { m_slicing; m_key; m_lifetime })

let decode_extra extra =
  let r = Codec.reader extra in
  let props =
    Codec.get_list r (fun r ->
        let name = Codec.get_string r in
        let a = get_atomic r in
        (name, a))
  in
  let memberships = get_memberships r in
  let provenance =
    if Codec.at_end r then no_provenance
    else
      let p_flow = Codec.get_string r in
      let p_parent = Codec.get_int r in
      let p_cause = Codec.get_string r in
      { p_flow; p_parent; p_cause }
  in
  (props, memberships, provenance)

(* The memberships alone, stepping over the properties without building
   them: what retention GC and index rebuilds read from a store record. *)
let memberships_of_extra extra =
  let r = Codec.reader extra in
  for _ = 1 to Codec.get_int r do
    Codec.skip_string r;
    match Codec.get_char r with
    | 'b' -> ignore (Codec.get_bool r)
    | 'i' -> ignore (Codec.get_int r)
    | 'd' | 's' | 'u' -> Codec.skip_string r
    | c -> raise (Codec.Decode_error (Printf.sprintf "bad atomic tag %C" c))
  done;
  get_memberships r

let of_store store (sm : Demaq_store.Message_store.message) =
  let props, memberships, prov = decode_extra sm.extra in
  (* spilled bodies are faulted in through the buffer pool on first
     access and then held by this record's lazy cell; [raw] stays
     un-forced until either an admission scan or a decode needs it *)
  let raw = lazy (Demaq_store.Message_store.payload store sm) in
  let body = lazy (Demaq_xml.Bxml.decode_any (Lazy.force raw)) in
  {
    rid = sm.rid;
    queue = sm.queue;
    raw;
    body;
    doc = lazy (Tree.root_node (Tree.doc (Lazy.force body)));
    props;
    memberships;
    prov;
    enqueued_at = sm.enqueued_at;
    processed = sm.processed;
  }
