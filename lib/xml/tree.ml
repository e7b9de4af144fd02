type attribute = { attr_name : Name.t; attr_value : string }

type tree =
  | Element of element
  | Text of string
  | Comment of string
  | Pi of { target : string; data : string }

and element = { name : Name.t; attrs : attribute list; children : tree list }

let elem ?(attrs = []) name children =
  let attrs =
    List.map (fun (k, v) -> { attr_name = Name.of_string k; attr_value = v }) attrs
  in
  Element { name = Name.make name; attrs; children }

let elem_ns ?(attrs = []) name children = Element { name; attrs; children }
let text s = Text s
let attr k v = { attr_name = Name.of_string k; attr_value = v }

let element_name = function Element e -> Some e.name | _ -> None

let attribute_value t name =
  match t with
  | Element e ->
    List.find_map
      (fun a -> if Name.local a.attr_name = name then Some a.attr_value else None)
      e.attrs
  | _ -> None

let child_elements = function
  | Element e -> List.filter (function Element _ -> true | _ -> false) e.children
  | _ -> []

let find_child t name =
  match t with
  | Element e ->
    List.find_opt
      (function Element c -> Name.local c.name = name | _ -> false)
      e.children
  | _ -> None

let rec tree_string_value t =
  match t with
  | Text s -> s
  | Element e -> String.concat "" (List.map tree_string_value e.children)
  | Comment _ | Pi _ -> ""

let rec equal_tree a b =
  match a, b with
  | Text x, Text y -> String.equal x y
  | Comment x, Comment y -> String.equal x y
  | Pi x, Pi y -> String.equal x.target y.target && String.equal x.data y.data
  | Element x, Element y ->
    Name.equal x.name y.name
    && List.length x.attrs = List.length y.attrs
    && List.for_all
         (fun a ->
           List.exists
             (fun b ->
               Name.equal a.attr_name b.attr_name
               && String.equal a.attr_value b.attr_value)
             y.attrs)
         x.attrs
    && List.length x.children = List.length y.children
    && List.for_all2 equal_tree x.children y.children
  | (Text _ | Comment _ | Pi _ | Element _), _ -> false

type document = { id : int; roots : tree list }

(* Atomic: element constructors mint documents during unlocked rule
   evaluation on every worker domain, and node identity rests on the id. *)
let doc_counter = Atomic.make 1

let doc_of_forest roots = { id = Atomic.fetch_and_add doc_counter 1; roots }

let doc t = doc_of_forest [ t ]
let doc_id d = d.id

let document_element d =
  List.find_opt (function Element _ -> true | _ -> false) d.roots

(* A node is identified by the reversed path of steps from the document
   node. [Child i] selects the i-th child (or i-th root for the document
   node); [Attr i] selects the i-th attribute of an element. The focused
   subtree is cached so navigation downwards never re-walks the tree. *)
type step = Child of int | Attr of int

type focus =
  | Fdocument
  | Ftree of tree
  | Fattribute of attribute

type node = { ndoc : document; rpath : step list; nfocus : focus }

let focus n = n.nfocus
let node_document n = n.ndoc
let root_node d = { ndoc = d; rpath = []; nfocus = Fdocument }

let child_trees n =
  match n.nfocus with
  | Fdocument -> n.ndoc.roots
  | Ftree (Element e) -> e.children
  | Ftree (Text _ | Comment _ | Pi _) | Fattribute _ -> []

let children_where p n =
  let rec go i = function
    | [] -> []
    | t :: rest when p t ->
      { ndoc = n.ndoc; rpath = Child i :: n.rpath; nfocus = Ftree t } :: go (i + 1) rest
    | _ :: rest -> go (i + 1) rest
  in
  go 0 (child_trees n)

let children n = children_where (fun _ -> true) n

let attributes n =
  match n.nfocus with
  | Ftree (Element e) ->
    List.mapi
      (fun i a -> { ndoc = n.ndoc; rpath = Attr i :: n.rpath; nfocus = Fattribute a })
      e.attrs
  | Fdocument | Ftree (Text _ | Comment _ | Pi _) | Fattribute _ -> []

(* Re-resolve a path from the root; used only by [parent]. *)
let resolve_path d rpath =
  let steps = List.rev rpath in
  let rec go focus = function
    | [] -> focus
    | Child i :: rest ->
      let kids =
        match focus with
        | Fdocument -> d.roots
        | Ftree (Element e) -> e.children
        | Ftree _ | Fattribute _ -> []
      in
      go (Ftree (List.nth kids i)) rest
    | Attr i :: rest ->
      (match focus with
       | Ftree (Element e) -> go (Fattribute (List.nth e.attrs i)) rest
       | Fdocument | Ftree _ | Fattribute _ -> invalid_arg "resolve_path")
  in
  go Fdocument steps

let parent n =
  match n.rpath with
  | [] -> None
  | _ :: up ->
    let nfocus = resolve_path n.ndoc up in
    Some { ndoc = n.ndoc; rpath = up; nfocus }

(* One pre-order walk over the subtree. A node record is built only for a
   tree satisfying [p]; an element's rpath is consed only when it is
   needed, for its own record or to descend into its children. *)
let descendants_where p n =
  let doc = n.ndoc in
  let rec walk acc rpath i = function
    | [] -> acc
    | t :: rest ->
      let acc =
        match t with
        | Element { children = []; _ } | Text _ | Comment _ | Pi _ ->
          if p t then { ndoc = doc; rpath = Child i :: rpath; nfocus = Ftree t } :: acc
          else acc
        | Element e ->
          let rp = Child i :: rpath in
          let acc = if p t then { ndoc = doc; rpath = rp; nfocus = Ftree t } :: acc else acc in
          walk acc rp 0 e.children
      in
      walk acc rpath (i + 1) rest
  in
  List.rev (walk [] n.rpath 0 (child_trees n))

let descendants n = descendants_where (fun _ -> true) n

let descendant_or_self n = n :: descendants n

let node_name n =
  match n.nfocus with
  | Ftree (Element e) -> Some e.name
  | Fattribute a -> Some a.attr_name
  | Ftree (Pi p) -> Some (Name.make p.target)
  | Fdocument | Ftree (Text _ | Comment _) -> None

let string_value n =
  match n.nfocus with
  | Fdocument -> String.concat "" (List.map tree_string_value n.ndoc.roots)
  | Ftree t -> tree_string_value t
  | Fattribute a -> a.attr_value

let is_element n = match n.nfocus with Ftree (Element _) -> true | _ -> false
let is_text n = match n.nfocus with Ftree (Text _) -> true | _ -> false

let step_compare x y =
  match x, y with
  | Attr i, Attr j | Child i, Child j -> Int.compare i j
  | Attr _, Child _ -> -1
  | Child _, Attr _ -> 1

(* Document order without reversing the paths: cut the deeper rpath to the
   other's depth, walk both leaf-first and keep the step difference closest
   to the root. Equal cut paths mean one node is the other's ancestor (or
   itself), and the shallower one comes first. Siblings share their parent's
   rpath physically, so the walk usually stops at the first common tail. *)
let doc_order a b =
  let c = Int.compare a.ndoc.id b.ndoc.id in
  if c <> 0 then c
  else
    let la = List.length a.rpath and lb = List.length b.rpath in
    let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
    let rec cmp diff xs ys =
      if xs == ys then diff
      else
        match xs, ys with
        | x :: xs', y :: ys' ->
          let c = step_compare x y in
          cmp (if c <> 0 then c else diff) xs' ys'
        | _ -> diff
    in
    let xs = if la > lb then drop (la - lb) a.rpath else a.rpath in
    let ys = if lb > la then drop (lb - la) b.rpath else b.rpath in
    let diff = cmp 0 xs ys in
    if diff <> 0 then diff else Int.compare la lb

let same_node a b = doc_order a b = 0

let node_tree n =
  match n.nfocus with
  | Ftree t -> Some t
  | Fdocument -> document_element n.ndoc
  | Fattribute _ -> None

let rec pp_tree fmt = function
  | Text s -> Format.pp_print_string fmt s
  | Comment s -> Format.fprintf fmt "<!--%s-->" s
  | Pi { target; data } -> Format.fprintf fmt "<?%s %s?>" target data
  | Element e ->
    Format.fprintf fmt "<%s" (Name.to_string e.name);
    List.iter
      (fun a ->
        Format.fprintf fmt " %s=\"%s\"" (Name.to_string a.attr_name) a.attr_value)
      e.attrs;
    if e.children = [] then Format.fprintf fmt "/>"
    else begin
      Format.fprintf fmt ">";
      List.iter (pp_tree fmt) e.children;
      Format.fprintf fmt "</%s>" (Name.to_string e.name)
    end
