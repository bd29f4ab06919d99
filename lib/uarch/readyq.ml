(* [lo] is the first position an insertion may take: during a sweep,
   the first element the sweep has not visited yet; 0 otherwise. *)
type t = { mutable a : int array; mutable len : int; mutable lo : int }

let create ?(capacity = 64) () =
  { a = Array.make (max capacity 8) 0; len = 0; lo = 0 }

let length q = q.len

let ensure_room q =
  if q.len = Array.length q.a then begin
    let a' = Array.make (2 * Array.length q.a) 0 in
    Array.blit q.a 0 a' 0 q.len;
    q.a <- a'
  end

let push q i =
  ensure_room q;
  q.a.(q.len) <- i;
  q.len <- q.len + 1

let insert_at q pos i =
  Array.blit q.a pos q.a (pos + 1) (q.len - pos);
  q.a.(pos) <- i;
  q.len <- q.len + 1

let add_sorted q i =
  ensure_room q;
  if q.len = q.lo || q.a.(q.len - 1) <= i then begin
    q.a.(q.len) <- i;
    q.len <- q.len + 1
  end
  else begin
    (* binary search for the first position holding an element > i *)
    let lo = ref q.lo and hi = ref q.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if q.a.(mid) <= i then lo := mid + 1 else hi := mid
    done;
    insert_at q !lo i
  end

let insert q ~before i =
  ensure_room q;
  let lo = ref q.lo and hi = ref q.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if before i q.a.(mid) then hi := mid else lo := mid + 1
  done;
  insert_at q !lo i

let sweep q f =
  (* runs every cycle over every awake entry; [r] and [w] never exceed
     [q.len] <= [Array.length q.a], so the accesses skip bounds checks.
     [f] may insert into [q] (at or after [lo]), which can move [q.a]
     and grow [q.len], so both are re-read on every step. *)
  let w = ref 0 and r = ref 0 in
  while !r < q.len do
    let i = Array.unsafe_get q.a !r in
    q.lo <- !r + 1;
    if f i then begin
      Array.unsafe_set q.a !w i;
      incr w
    end;
    incr r
  done;
  q.len <- !w;
  q.lo <- 0

let iter q f =
  for r = 0 to q.len - 1 do
    f q.a.(r)
  done

let clear q = q.len <- 0
