type t = { uri : string; local : string }

let make ?(uri = "") local = { uri; local }

(* Element and attribute names recur across every message a document
   parses; hash-consing them makes each distinct (uri, local) pair one
   shared allocation instead of one per occurrence. The table is bounded:
   past the cap, names fall back to fresh allocation (hostile input with
   unbounded distinct names cannot pin memory). The table is global and
   worker domains parse messages concurrently, so lookups and inserts are
   serialized under a mutex. *)
let interned : (string * string, t) Hashtbl.t = Hashtbl.create 256
let interned_mu = Mutex.create ()
let intern_cap = 4096

(* Per-domain read-through cache in front of the shared table: steady
   state interning (every element and attribute name of every message)
   touches only domain-local state — no mutex, no contention. Misses
   fill from the global table so all domains still share one value per
   name. *)
let local_cache : (string * string, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let intern ?(uri = "") local =
  let cache = Domain.DLS.get local_cache in
  let key = (uri, local) in
  match Hashtbl.find cache key with
  | t -> t
  | exception Not_found ->
    let t =
      Mutex.protect interned_mu @@ fun () ->
      match Hashtbl.find_opt interned key with
      | Some t -> t
      | None ->
        let t = { uri; local } in
        if Hashtbl.length interned < intern_cap then Hashtbl.add interned key t;
        t
    in
    if Hashtbl.length cache < intern_cap then Hashtbl.add cache key t;
    t
let uri t = t.uri
let local t = t.local
let equal a b = String.equal a.uri b.uri && String.equal a.local b.local

let compare a b =
  let c = String.compare a.uri b.uri in
  if c <> 0 then c else String.compare a.local b.local

let hash t = Hashtbl.hash (t.uri, t.local)

let to_string t =
  if t.uri = "" then t.local else Printf.sprintf "{%s}%s" t.uri t.local

let of_string s =
  if String.length s > 0 && s.[0] = '{' then
    match String.index_opt s '}' with
    | Some i ->
      { uri = String.sub s 1 (i - 1);
        local = String.sub s (i + 1) (String.length s - i - 1) }
    | None -> { uri = ""; local = s }
  else { uri = ""; local = s }

let pp fmt t = Format.pp_print_string fmt (to_string t)
