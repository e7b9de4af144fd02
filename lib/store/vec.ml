(* A minimal growable array (OCaml 5.1 has no Dynarray yet). Append-only
   usage dominates: message queues only ever append rids. *)

type 'a t = { mutable data : 'a array; mutable size : int; dummy : 'a }

let create ~dummy = { data = Array.make 8 dummy; size = 0; dummy }

let length v = v.size

let push v x =
  if v.size = Array.length v.data then begin
    let bigger = Array.make (2 * Array.length v.data) v.dummy in
    Array.blit v.data 0 bigger 0 v.size;
    v.data <- bigger
  end;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get";
  v.data.(i)

let iter f v =
  for i = 0 to v.size - 1 do
    f v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.size - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v = List.rev (fold (fun acc x -> x :: acc) [] v)

let filter_in_place p v =
  let j = ref 0 in
  for i = 0 to v.size - 1 do
    if p v.data.(i) then begin
      v.data.(!j) <- v.data.(i);
      incr j
    end
  done;
  for i = !j to v.size - 1 do
    v.data.(i) <- v.dummy
  done;
  v.size <- !j

let sort cmp v =
  let i = ref 1 in
  while !i < v.size && cmp v.data.(!i - 1) v.data.(!i) <= 0 do
    incr i
  done;
  if !i < v.size then begin
    let a = Array.sub v.data 0 v.size in
    Array.stable_sort cmp a;
    Array.blit a 0 v.data 0 v.size
  end
