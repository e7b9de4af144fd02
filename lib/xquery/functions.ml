(* The built-in function library: the fn: functions used by Demaq rules
   plus the qs: queue access functions (dispatched to the host hooks).

   Deviations from XQuery 1.0 F&O, documented here once:
   - [fn:current-dateTime] returns the engine's virtual-clock tick as an
     integer rather than an xs:dateTime.
   - [fn:tokenize] splits on a literal separator string, not a regex. *)

module Tree = Demaq_xml.Tree
open Value
open Context

let err = eval_error

let strip_prefix name =
  match String.index_opt name ':' with
  | Some i -> (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> ("fn", name)

let one_string args_name v =
  match atomize v with
  | [] -> ""
  | [ a ] -> string_of_atomic a
  | _ -> err "%s: expected at most one item" args_name

let one_number name v =
  match atomize v with
  | [ a ] -> number_of_atomic a
  | _ -> err "%s: expected exactly one item" name

let opt_node name v =
  match v with
  | [] -> None
  | [ Node n ] -> Some n
  | _ -> err "%s: expected a single node" name

let bool_value b = [ Atom (Boolean b) ]
let str_value s = [ Atom (String s) ]
let int_value i = [ Atom (Integer i) ]

let numeric_result f = if Float.is_integer f then Integer (int_of_float f) else Decimal f

let ctx_or_arg env name args =
  match args with
  | [] -> [ context_item env ]
  | [ v ] -> v
  | _ -> err "%s: too many arguments" name

(* substring with XPath 1-based, rounding semantics *)
let substring s start len_opt =
  let n = String.length s in
  let start = Float.round start in
  let finish =
    match len_opt with
    | None -> float_of_int (n + 1)
    | Some l -> start +. Float.round l
  in
  let lo = max 1 (int_of_float start) in
  let hi = min (n + 1) (int_of_float finish) in
  if hi <= lo then "" else String.sub s (lo - 1) (hi - lo)

let normalize_space s =
  let words =
    String.split_on_char ' ' (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s)
  in
  String.concat " " (List.filter (fun w -> w <> "") words)

let split_on_string ~sep s =
  if sep = "" then err "fn:tokenize: empty separator"
  else begin
    let parts = ref [] in
    let buf = Buffer.create 16 in
    let slen = String.length sep in
    let i = ref 0 in
    while !i < String.length s do
      if !i + slen <= String.length s && String.sub s !i slen = sep then begin
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf;
        i := !i + slen
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    parts := Buffer.contents buf :: !parts;
    List.rev !parts
  end

let aggregate name fold init args =
  match args with
  | [ v ] -> (
    match atomize v with
    | [] -> []
    | atoms ->
      let nums = List.map number_of_atomic atoms in
      if List.exists Float.is_nan nums then err "%s: non-numeric input" name
      else [ Atom (numeric_result (List.fold_left fold init nums)) ])
  | _ -> err "%s: expected one argument" name

(* fn:distinct-values keeps an atom unless [compare_atomic] equates it with
   one already kept. That equality is not transitive ("1.0" = 1 = "1", yet
   "1.0" <> "1"), so the kept atoms are indexed by how each kind compares:
   strings and booleans by string value, integers exactly, and integers,
   decimals and strings also by numeric value. A candidate probes exactly
   the indexes [compare_atomic] would consult for its kind, so the result
   is that of the pairwise scan, in first-occurrence order, in expected
   linear time. *)
module Str_tbl = Hashtbl.Make (String)
module Int_tbl = Hashtbl.Make (Int)

module Num_tbl = Hashtbl.Make (struct
  type t = float

  (* [Float.compare] equates nan with nan and -0.0 with 0.0 *)
  let equal a b = Float.compare a b = 0
  let hash f = if Float.is_nan f then 0 else Hashtbl.hash (if f = 0.0 then 0.0 else f)
end)

let distinct_values v =
  let atoms = atomize v in
  let n = List.length atoms in
  (* only a number probes a string's numeric value; without numbers that
     index stays empty *)
  let numbers =
    List.exists (function Integer _ | Decimal _ -> true | _ -> false) atoms
  in
  let by_string = Str_tbl.create n (* kept strings and booleans *)
  and by_int = Int_tbl.create 16
  and int_num = Num_tbl.create 16
  and dec_num = Num_tbl.create 16
  and str_num = Num_tbl.create 16 in
  let seen a =
    match a with
    | Boolean _ -> Str_tbl.mem by_string (string_of_atomic a)
    | Integer i ->
      let f = float_of_int i in
      Int_tbl.mem by_int i || Num_tbl.mem dec_num f || Num_tbl.mem str_num f
    | Decimal f -> Num_tbl.mem int_num f || Num_tbl.mem dec_num f || Num_tbl.mem str_num f
    | String s | Untyped s ->
      Str_tbl.mem by_string s
      || (numbers
         &&
         let f = number_of_atomic a in
         Num_tbl.mem int_num f || Num_tbl.mem dec_num f)
  in
  let keep a =
    match a with
    | Boolean _ -> Str_tbl.replace by_string (string_of_atomic a) ()
    | Integer i ->
      Int_tbl.replace by_int i ();
      Num_tbl.replace int_num (float_of_int i) ()
    | Decimal f -> Num_tbl.replace dec_num f ()
    | String s | Untyped s ->
      Str_tbl.replace by_string s ();
      if numbers then Num_tbl.replace str_num (number_of_atomic a) ()
  in
  List.filter_map
    (fun a ->
      if seen a then None
      else begin
        keep a;
        Some (Atom a)
      end)
    atoms

let call env name (args : Value.t list) : Value.t =
  let prefix, local = strip_prefix name in
  match prefix, local, args with
  (* ---- qs: queue library (host hooks) ---- *)
  | "qs", "message", [] -> env.host.h_message ()
  | "qs", "queue", [] -> env.host.h_queue None
  | "qs", "queue", [ v ] -> env.host.h_queue (Some (one_string "qs:queue" v))
  | "qs", "property", [ v ] -> env.host.h_property (one_string "qs:property" v)
  | "qs", "slice", [] -> env.host.h_slice ()
  | "qs", "slicekey", [] -> env.host.h_slicekey ()
  | "qs", other, _ -> err "unknown qs: function qs:%s" other
  (* ---- booleans ---- *)
  | "fn", "true", [] -> bool_value true
  | "fn", "false", [] -> bool_value false
  | "fn", "not", [ v ] -> bool_value (not (ebv v))
  | "fn", "boolean", [ v ] -> bool_value (ebv v)
  (* ---- sequences ---- *)
  | "fn", "count", [ v ] -> int_value (List.length v)
  | "fn", "exists", [ v ] -> bool_value (v <> [])
  | "fn", "empty", [ v ] -> bool_value (v = [])
  | "fn", "data", [ v ] -> List.map (fun a -> Atom a) (atomize v)
  | "fn", "distinct-values", [ v ] -> distinct_values v
  | "fn", "reverse", [ v ] -> List.rev v
  | "fn", "index-of", [ v; x ] -> (
    match atomize x with
    | [ target ] ->
      List.concat
        (List.mapi
           (fun i item ->
             if compare_atomic (atomize_item item) target = 0 then
               [ Atom (Integer (i + 1)) ]
             else [])
           v)
    | _ -> err "fn:index-of: second argument must be a single atomic")
  | "fn", "subsequence", [ v; s ] ->
    let start = int_of_float (Float.round (one_number "fn:subsequence" s)) in
    List.filteri (fun i _ -> i + 1 >= start) v
  | "fn", "subsequence", [ v; s; l ] ->
    let start = int_of_float (Float.round (one_number "fn:subsequence" s)) in
    let length = int_of_float (Float.round (one_number "fn:subsequence" l)) in
    List.filteri (fun i _ -> i + 1 >= start && i + 1 < start + length) v
  | "fn", "insert-before", [ v; p; ins ] ->
    let p = max 1 (int_of_float (one_number "fn:insert-before" p)) in
    let rec go i = function
      | [] -> ins
      | x :: rest -> if i = p then ins @ (x :: rest) else x :: go (i + 1) rest
    in
    go 1 v
  | "fn", "remove", [ v; p ] ->
    let p = int_of_float (one_number "fn:remove" p) in
    List.filteri (fun i _ -> i + 1 <> p) v
  (* ---- context ---- *)
  | "fn", "position", [] -> int_value env.pos
  | "fn", "last", [] -> int_value env.size
  | "fn", "root", args ->
    (match opt_node "fn:root" (ctx_or_arg env "fn:root" args) with
     | None -> []
     | Some n -> [ Node (Tree.root_node (Tree.node_document n)) ])
  | "fn", ("name" | "local-name"), args ->
    (match opt_node "fn:name" (ctx_or_arg env "fn:name" args) with
     | None -> str_value ""
     | Some n ->
       str_value
         (match Tree.node_name n with
          | Some nm -> Demaq_xml.Name.local nm
          | None -> ""))
  (* ---- strings ---- *)
  | "fn", "string", args -> str_value (string_value (ctx_or_arg env "fn:string" args))
  | "fn", "concat", args when List.length args >= 2 ->
    str_value (String.concat "" (List.map (one_string "fn:concat") args))
  | "fn", "string-join", [ v; sep ] ->
    let sep = one_string "fn:string-join" sep in
    str_value (String.concat sep (List.map string_of_atomic (atomize v)))
  | "fn", "string-length", args ->
    int_value (String.length (string_value (ctx_or_arg env "fn:string-length" args)))
  | "fn", "contains", [ a; b ] ->
    let s = one_string "fn:contains" a and sub = one_string "fn:contains" b in
    let n = String.length sub in
    let rec find i =
      i + n <= String.length s && (String.sub s i n = sub || find (i + 1))
    in
    bool_value (n = 0 || find 0)
  | "fn", "starts-with", [ a; b ] ->
    let s = one_string "fn:starts-with" a and p = one_string "fn:starts-with" b in
    bool_value
      (String.length p <= String.length s
      && String.sub s 0 (String.length p) = p)
  | "fn", "ends-with", [ a; b ] ->
    let s = one_string "fn:ends-with" a and p = one_string "fn:ends-with" b in
    bool_value
      (String.length p <= String.length s
      && String.sub s (String.length s - String.length p) (String.length p) = p)
  | "fn", "substring", [ a; b ] ->
    str_value
      (substring (one_string "fn:substring" a) (one_number "fn:substring" b) None)
  | "fn", "substring", [ a; b; c ] ->
    str_value
      (substring (one_string "fn:substring" a) (one_number "fn:substring" b)
         (Some (one_number "fn:substring" c)))
  | "fn", "substring-before", [ a; b ] ->
    let s = one_string "fn:substring-before" a
    and sep = one_string "fn:substring-before" b in
    (match split_on_string ~sep s with
     | first :: _ :: _ -> str_value first
     | _ -> str_value "")
  | "fn", "substring-after", [ a; b ] ->
    let s = one_string "fn:substring-after" a
    and sep = one_string "fn:substring-after" b in
    (match split_on_string ~sep s with
     | _ :: (_ :: _ as rest) -> str_value (String.concat sep rest)
     | _ -> str_value "")
  | "fn", "normalize-space", args ->
    str_value (normalize_space (string_value (ctx_or_arg env "fn:normalize-space" args)))
  | "fn", "upper-case", [ v ] ->
    str_value (String.uppercase_ascii (one_string "fn:upper-case" v))
  | "fn", "lower-case", [ v ] ->
    str_value (String.lowercase_ascii (one_string "fn:lower-case" v))
  | "fn", "tokenize", [ v; sep ] ->
    let s = one_string "fn:tokenize" v and sep = one_string "fn:tokenize" sep in
    List.map (fun part -> Atom (String part)) (split_on_string ~sep s)
  | "fn", "translate", [ v; from_; to_ ] ->
    let s = one_string "fn:translate" v in
    let from_ = one_string "fn:translate" from_
    and to_ = one_string "fn:translate" to_ in
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match String.index_opt from_ c with
        | Some i -> if i < String.length to_ then Buffer.add_char buf to_.[i]
        | None -> Buffer.add_char buf c)
      s;
    str_value (Buffer.contents buf)
  | "fn", "replace", [ v; pat; rep ] ->
    (* Deviation from F&O: [pat] is a literal substring, not a regex. *)
    let s = one_string "fn:replace" v in
    let pat = one_string "fn:replace" pat and rep = one_string "fn:replace" rep in
    str_value (String.concat rep (split_on_string ~sep:pat s))
  | "fn", "matches", [ v; pat ] ->
    (* Deviation from F&O: substring containment, not a regex. *)
    let s = one_string "fn:matches" v and pat = one_string "fn:matches" pat in
    bool_value (pat = "" || List.length (split_on_string ~sep:pat s) > 1)
  | "fn", "compare", [ a; b ] ->
    int_value (String.compare (one_string "fn:compare" a) (one_string "fn:compare" b))
  (* ---- numbers ---- *)
  | "fn", "number", args -> (
    match atomize (ctx_or_arg env "fn:number" args) with
    | [ a ] -> [ Atom (Decimal (number_of_atomic a)) ]
    | _ -> [ Atom (Decimal Float.nan) ])
  | "fn", "sum", _ -> aggregate "fn:sum" ( +. ) 0.0 args
  | "fn", "avg", [ v ] -> (
    match atomize v with
    | [] -> []
    | atoms ->
      let nums = List.map number_of_atomic atoms in
      if List.exists Float.is_nan nums then err "fn:avg: non-numeric input"
      else
        [ Atom
            (Decimal (List.fold_left ( +. ) 0.0 nums /. float_of_int (List.length nums)))
        ])
  | "fn", "max", [ v ] -> (
    match atomize v with
    | [] -> []
    | a :: rest ->
      [ Atom (List.fold_left (fun m x -> if compare_atomic x m > 0 then x else m) a rest) ])
  | "fn", "min", [ v ] -> (
    match atomize v with
    | [] -> []
    | a :: rest ->
      [ Atom (List.fold_left (fun m x -> if compare_atomic x m < 0 then x else m) a rest) ])
  | "fn", "abs", [ v ] -> [ Atom (numeric_result (Float.abs (one_number "fn:abs" v))) ]
  | "fn", "floor", [ v ] ->
    [ Atom (numeric_result (Float.floor (one_number "fn:floor" v))) ]
  | "fn", "ceiling", [ v ] ->
    [ Atom (numeric_result (Float.ceil (one_number "fn:ceiling" v))) ]
  | "fn", "round", [ v ] ->
    [ Atom (numeric_result (Float.round (one_number "fn:round" v))) ]
  | "fn", "deep-equal", [ a; b ] ->
    let item_eq x y =
      match x, y with
      | Atom p, Atom q -> compare_atomic p q = 0
      | Node p, Node q -> (
        match Tree.node_tree p, Tree.node_tree q with
        | Some tp, Some tq -> Tree.equal_tree tp tq
        | None, None -> Tree.string_value p = Tree.string_value q
        | _ -> false)
      | (Atom _ | Node _), _ -> false
    in
    bool_value (List.length a = List.length b && List.for_all2 item_eq a b)
  | "fn", "zero-or-one", [ v ] ->
    if List.length v <= 1 then v else err "fn:zero-or-one: more than one item"
  | "fn", "one-or-more", [ v ] ->
    if v <> [] then v else err "fn:one-or-more: empty sequence"
  | "fn", "exactly-one", [ v ] ->
    if List.length v = 1 then v else err "fn:exactly-one: not a singleton"
  (* ---- environment ---- *)
  | "fn", "current-dateTime", [] -> int_value (env.host.h_now ())
  | "fn", "collection", [ v ] ->
    env.host.h_collection (one_string "fn:collection" v)
  | "fn", "trace", [ v; label ] ->
    (* identity with a side-channel: the classic F&O debugging hook *)
    Logs.debug (fun f ->
        f "fn:trace %s: %s" (one_string "fn:trace" label)
          (String.concat ", " (List.map string_of_atomic (atomize v))));
    v
  | "fn", "error", [] -> err "fn:error()"
  | "fn", "error", [ v ] -> err "%s" (one_string "fn:error" v)
  | _, _, _ ->
    err "unknown function %s#%d" name (List.length args)
