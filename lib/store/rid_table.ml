(* Pages of [page_size] slots under a directory that covers the page
   numbers [base, base + Array.length dir). An absent page is the shared
   empty array; [fill] counts the entries of each page, so a page is freed
   the moment its count drops to 0. *)

let page_bits = 10
let page_size = 1 lsl page_bits
let slot_mask = page_size - 1

type 'a t = {
  dummy : 'a;
  mutable base : int;  (* page number of [dir.(0)] *)
  mutable dir : 'a array array;
  mutable fill : int array;  (* entries per directory slot *)
  mutable length : int;
  mutable pages : int;
}

let create ~dummy = { dummy; base = 0; dir = [||]; fill = [||]; length = 0; pages = 0 }
let length t = t.length
let pages t = t.pages

(* the entry for [rid], or [t.dummy] *)
let slot t rid =
  let p = (rid asr page_bits) - t.base in
  if p < 0 || p >= Array.length t.dir then t.dummy
  else
    let page = Array.unsafe_get t.dir p in
    if Array.length page = 0 then t.dummy
    else Array.unsafe_get page (rid land slot_mask)

let find_opt t rid =
  let x = slot t rid in
  if x == t.dummy then None else Some x

let mem t rid = slot t rid != t.dummy

(* Re-window the directory around the allocated pages plus page [pn],
   with as much slack again on the side the table grows towards. Each
   call leaves room for as many new pages as the span it keeps, so the
   copying is amortized over the pages added. *)
let cover t pn =
  let cap = Array.length t.dir in
  let first = ref 0 in
  while !first < cap && t.fill.(!first) = 0 do incr first done;
  let last = ref (cap - 1) in
  while !last >= 0 && t.fill.(!last) = 0 do decr last done;
  let empty = !first = cap in
  let lo = if empty then pn else min pn (t.base + !first) in
  let hi = if empty then pn else max pn (t.base + !last) in
  let ncap = max 4 (2 * (hi - lo + 1)) in
  let downward = (not empty) && pn < t.base + !first in
  let nbase = if downward then max 0 (hi + 1 - ncap) else lo in
  let dir = Array.make ncap [||] and fill = Array.make ncap 0 in
  for i = !first to !last do
    dir.(t.base + i - nbase) <- t.dir.(i);
    fill.(t.base + i - nbase) <- t.fill.(i)
  done;
  t.base <- nbase;
  t.dir <- dir;
  t.fill <- fill

let set t rid x =
  if rid < 0 then invalid_arg "Rid_table.set: negative rid";
  let pn = rid asr page_bits in
  if pn < t.base || pn - t.base >= Array.length t.dir then cover t pn;
  let p = pn - t.base in
  let page =
    let page = t.dir.(p) in
    if Array.length page > 0 then page
    else begin
      let page = Array.make page_size t.dummy in
      t.dir.(p) <- page;
      t.pages <- t.pages + 1;
      page
    end
  in
  let i = rid land slot_mask in
  if page.(i) == t.dummy then begin
    t.fill.(p) <- t.fill.(p) + 1;
    t.length <- t.length + 1
  end;
  page.(i) <- x

let remove t rid =
  let p = (rid asr page_bits) - t.base in
  if p >= 0 && p < Array.length t.dir then begin
    let page = t.dir.(p) in
    let i = rid land slot_mask in
    if Array.length page > 0 && page.(i) != t.dummy then begin
      page.(i) <- t.dummy;
      t.length <- t.length - 1;
      let n = t.fill.(p) - 1 in
      t.fill.(p) <- n;
      if n = 0 then begin
        t.dir.(p) <- [||];
        t.pages <- t.pages - 1
      end
    end
  end

let fold f t acc =
  let acc = ref acc in
  for p = 0 to Array.length t.dir - 1 do
    if t.fill.(p) > 0 then begin
      let page = t.dir.(p) and first = (t.base + p) lsl page_bits in
      for i = 0 to page_size - 1 do
        let x = Array.unsafe_get page i in
        if x != t.dummy then acc := f (first + i) x !acc
      done
    end
  done;
  !acc

let iter f t = fold (fun rid x () -> f rid x) t ()

let lowest t =
  let rec page p =
    if p >= Array.length t.dir then None
    else if t.fill.(p) = 0 then page (p + 1)
    else
      let rec scan i =
        if t.dir.(p).(i) != t.dummy then Some (((t.base + p) lsl page_bits) + i)
        else scan (i + 1)
      in
      scan 0
  in
  page 0
