(* [prev] encodes an entry's place: the previous entry (>= 0), [-2 - l]
   for the front of list [l], or -1 when the entry is on no list. *)
type t = {
  entries : int;
  lists : int;
  head : Bytes.t; (* per list: front entry or -1 *)
  next : Bytes.t; (* per entry: following entry or -1 *)
  prev : Bytes.t;
}

(* Every index is a list or entry id in range by construction, so the
   cells are read without bounds checks; the int32 is unboxed at once. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let get b k = Int32.to_int (get32 b (k lsl 2))
let set b k v = set32 b (k lsl 2) (Int32.of_int v)

(* all-ones bytes read back as -1 in every cell *)
let create ~entries ~lists =
  { entries; lists;
    head = Bytes.make (4 * lists) '\255';
    next = Bytes.make (4 * entries) '\255';
    prev = Bytes.make (4 * entries) '\255' }

let reset t =
  Bytes.fill t.head 0 (Bytes.length t.head) '\255';
  Bytes.fill t.prev 0 (Bytes.length t.prev) '\255'

let add t l i =
  let h = get t.head l in
  set t.next i h;
  set t.prev i (-2 - l);
  if h >= 0 then set t.prev h i;
  set t.head l i

let remove t i =
  let p = get t.prev i in
  if p <> -1 then begin
    let nx = get t.next i in
    if p >= 0 then set t.next p nx else set t.head (-2 - p) nx;
    if nx >= 0 then set t.prev nx p;
    set t.prev i (-1)
  end

let pop t l =
  let i = get t.head l in
  if i >= 0 then begin
    let nx = get t.next i in
    set t.head l nx;
    if nx >= 0 then set t.prev nx (-2 - l);
    set t.prev i (-1)
  end;
  i

let first t l = get t.head l
let next t i = get t.next i
let linked t i = get t.prev i <> -1

let check t =
  let fail fmt = Printf.ksprintf failwith ("Wakeq.check: " ^^ fmt) in
  let seen = Bytes.make t.entries '\000' in
  for l = 0 to t.lists - 1 do
    let back = ref (-2 - l) in
    let i = ref (get t.head l) in
    while !i >= 0 do
      if !i >= t.entries then fail "list %d links to entry %d" l !i;
      if Bytes.get seen !i <> '\000' then fail "entry %d reached twice" !i;
      Bytes.set seen !i '\001';
      if get t.prev !i <> !back then fail "entry %d has a stale back link" !i;
      back := !i;
      i := get t.next !i
    done
  done;
  for i = 0 to t.entries - 1 do
    if linked t i && Bytes.get seen i = '\000' then
      fail "entry %d is linked but on no list" i
  done
