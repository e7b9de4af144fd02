type occurrence = One | Optional | Many | Many1

type particle = { pname : string; occ : occurrence }

type content =
  | Text_only
  | Empty
  | Any
  | Mixed
  | Sequence of particle list

module Smap = Map.Make (String)

type t = content Smap.t

let empty = Smap.empty
let declared t name = Smap.find_opt name t

(* ---- textual syntax ---- *)

let tokenize src =
  let toks = ref [] in
  let n = String.length src in
  let i = ref 0 in
  let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = '.'
  in
  while !i < n do
    let c = src.[!i] in
    if is_space c then incr i
    else if c = '{' || c = '}' || c = ',' || c = '?' || c = '*' || c = '+' then begin
      toks := String.make 1 c :: !toks;
      incr i
    end
    else if is_word c then begin
      let start = !i in
      while !i < n && is_word src.[!i] do incr i done;
      toks := String.sub src start (!i - start) :: !toks
    end
    else begin
      toks := Printf.sprintf "!bad:%c" c :: !toks;
      incr i
    end
  done;
  List.rev !toks

let parse src =
  let rec decls t = function
    | [] -> Ok t
    | "element" :: name :: "{" :: rest ->
      let rec body acc = function
        | "}" :: rest -> Ok (List.rev acc, rest)
        | "," :: rest -> body acc rest
        | w :: rest when String.length w > 0 && w.[0] <> '!' ->
          let occ, rest =
            match rest with
            | "?" :: r -> (Optional, r)
            | "*" :: r -> (Many, r)
            | "+" :: r -> (Many1, r)
            | r -> (One, r)
          in
          body ({ pname = w; occ } :: acc) rest
        | tok :: _ -> Error ("schema: unexpected token " ^ tok)
        | [] -> Error "schema: unterminated content model"
      in
      (match body [] rest with
       | Error e -> Error e
       | Ok (particles, rest) ->
         let content =
           match particles with
           | [ { pname = "text"; occ = One } ] -> Text_only
           | [ { pname = "empty"; occ = One } ] -> Empty
           | [ { pname = "any"; occ = One } ] -> Any
           | [ { pname = "mixed"; occ = One } ] -> Mixed
           | ps -> Sequence ps
         in
         decls (Smap.add name content t) rest)
    | tok :: _ -> Error ("schema: expected 'element', found " ^ tok)
  in
  decls Smap.empty (tokenize src)

(* ---- validation ---- *)

let child_element_names tree =
  List.filter_map
    (function Tree.Element e -> Some (Name.local e.Tree.name) | _ -> None)
    (match tree with Tree.Element e -> e.children | _ -> [])

let has_nonspace_text tree =
  match tree with
  | Tree.Element e ->
    List.exists
      (function
        | Tree.Text s -> String.exists (fun c -> not (List.mem c [ ' '; '\t'; '\n'; '\r' ])) s
        | _ -> false)
      e.children
  | _ -> false

(* Greedy matching of a child-name list against a particle sequence.
   Particles are matched in order; [*], [+] consume greedily. Greedy
   matching is exact here because consecutive particles in our content
   models never share a name. *)
let match_sequence particles names =
  let rec go ps names =
    match ps with
    | [] -> if names = [] then Ok () else Error ("unexpected element <" ^ List.hd names ^ ">")
    | { pname; occ } :: ps' ->
      let rec eat n names =
        match names with
        | x :: rest when x = pname -> eat (n + 1) rest
        | _ -> (n, names)
      in
      let count, rest = eat 0 names in
      let min_c, max_c =
        match occ with
        | One -> (1, 1)
        | Optional -> (0, 1)
        | Many -> (0, max_int)
        | Many1 -> (1, max_int)
      in
      if count < min_c then
        Error (Printf.sprintf "missing required element <%s>" pname)
      else if count > max_c then
        Error (Printf.sprintf "too many <%s> elements (%d)" pname count)
      else go ps' rest
  in
  go particles names

let rec validate_tree t tree =
  match tree with
  | Tree.Text _ | Tree.Comment _ | Tree.Pi _ -> Ok ()
  | Tree.Element e ->
    let name = Name.local e.Tree.name in
    let local_check =
      match Smap.find_opt name t with
      | None | Some Any | Some Mixed -> Ok ()
      | Some Empty ->
        if e.children = [] then Ok ()
        else Error (Printf.sprintf "<%s> must be empty" name)
      | Some Text_only ->
        if child_element_names tree = [] then Ok ()
        else Error (Printf.sprintf "<%s> must contain only text" name)
      | Some (Sequence ps) ->
        if has_nonspace_text tree then
          Error (Printf.sprintf "<%s> may not contain text" name)
        else begin
          match match_sequence ps (child_element_names tree) with
          | Ok () -> Ok ()
          | Error msg -> Error (Printf.sprintf "in <%s>: %s" name msg)
        end
    in
    (match local_check with
     | Error _ as e -> e
     | Ok () ->
       List.fold_left
         (fun acc c -> match acc with Error _ -> acc | Ok () -> validate_tree t c)
         (Ok ()) e.children)

let validate t tree = validate_tree t tree

let root_allowed t roots tree =
  match tree with
  | Tree.Element e ->
    let name = Name.local e.Tree.name in
    if roots <> [] && not (List.mem name roots) then
      Error (Printf.sprintf "root element <%s> not allowed; expected one of: %s"
               name (String.concat ", " roots))
    else validate t tree
  | _ -> Error "document root must be an element"

let declared_names t = List.map fst (Smap.bindings t)

(* ---- sample-message generation ----

   Walk a content model and synthesize an instance document — the
   basex-utils get-example-xml.xq idea: the deployed schema, not a
   hand-written corpus, determines the message shapes a workload sends.
   [vary] perturbs repetition counts and leaf values so a stream of
   generated messages is not byte-identical; generation is deterministic
   in (schema, name, vary). *)

let contains_word s sub =
  let s = String.lowercase_ascii s and n = String.length sub in
  let len = String.length s in
  let rec go i =
    i + n <= len && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let leaf_text name vary =
  if contains_word name "id" then string_of_int (100000 + (vary * 7919 mod 899999))
  else if
    contains_word name "count" || contains_word name "qty"
    || contains_word name "quantity" || contains_word name "priority"
  then string_of_int (1 + (vary mod 9))
  else if contains_word name "price" || contains_word name "amount"
          || contains_word name "total" then
    Printf.sprintf "%d.%02d" (10 + (vary mod 90)) (vary mod 100)
  else if contains_word name "time" || contains_word name "date"
          || contains_word name "deadline" then
    string_of_int (1 + (vary mod 120))
  else Printf.sprintf "%s-%d" name vary

let example ?(vary = 0) ?(max_depth = 8) t name =
  match Smap.find_opt name t with
  | None -> None
  | Some _ ->
    let rec build depth name vary =
      match if depth <= 0 then None else Some (Smap.find_opt name t) with
      | None | Some (Some Empty) -> Tree.elem name []
      | Some (None | Some (Any | Text_only | Mixed)) ->
        Tree.elem name [ Tree.text (leaf_text name vary) ]
      | Some (Some (Sequence ps)) ->
        Tree.elem name
          (List.concat
             (List.mapi
                (fun i { pname; occ } ->
                  let v = vary + i in
                  let n =
                    match occ with
                    | One -> 1
                    | Optional -> if v mod 3 = 2 then 0 else 1
                    | Many -> v mod 3  (* 0, 1 or 2 repetitions *)
                    | Many1 -> 1 + (v mod 2)
                  in
                  List.init n (fun j -> build (depth - 1) pname (v + (j * 13))))
                ps))
    in
    Some (build max_depth name vary)
