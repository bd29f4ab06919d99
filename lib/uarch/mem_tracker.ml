(* Modelled per-task load CAM for memory-dependence speculation.

   Each task context owns [entries] direct-mapped slots. When a
   speculative task issues an unsynchronised load whose producing store
   lives in an older, still-unretired task, the load's address is
   recorded here. When an older task retires a store, the engine probes
   every younger task's CAM with the store address: a hit means the
   younger task consumed the location before the write committed — a
   cross-task read-before-write violation, and the younger task is
   squashed (Engine charges it to the [mem_violation] CPI reason and
   trains the store-set predictor with the recorded load PC).

   The CAM is finite and tagged with the full address, but a slot that
   has been overwritten by a different address turns imprecise: real
   violation CAMs cannot disambiguate past that point, so an imprecise
   slot matches any probe that maps to it. All storage is flat int
   arrays/bytes — no allocation after [create], so the structure is
   cheap enough to sit on the issue path. *)

type t = {
  entries : int; (* per-task slots, a power of two *)
  mask : int;
  addr : int array;      (* max_tasks * entries; -1 = empty *)
  load_pc : int array;   (* PC of the recorded load, for training *)
  imprecise : Bytes.t;   (* '\001' once a slot held two addresses *)
  count : int array;     (* live entries per task slot *)
}

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ~max_tasks ~entries =
  if max_tasks <= 0 then invalid_arg "Mem_tracker.create: max_tasks <= 0";
  if entries <= 0 then invalid_arg "Mem_tracker.create: entries <= 0";
  let entries = pow2 entries 1 in
  { entries;
    mask = entries - 1;
    addr = Array.make (max_tasks * entries) (-1);
    load_pc = Array.make (max_tasks * entries) 0;
    imprecise = Bytes.make (max_tasks * entries) '\000';
    count = Array.make max_tasks 0 }

(* loads and stores of different widths alias within an 8-byte word;
   indexing on the word keeps the model conservative, like the
   coarse-grained disambiguation of a real CAM *)
let index t ~slot ~addr = (slot * t.entries) + ((addr lsr 3) land t.mask)

let record_load t ~slot ~addr:a ~pc =
  let j = index t ~slot ~addr:a in
  if t.addr.(j) < 0 then begin
    t.addr.(j) <- a;
    t.count.(slot) <- t.count.(slot) + 1
  end
  else if t.addr.(j) <> a then begin
    Bytes.set t.imprecise j '\001';
    t.addr.(j) <- a
  end;
  t.load_pc.(j) <- pc

(* [probe] returns the recorded load PC on a violation, -1 otherwise. *)
let probe t ~slot ~addr:a =
  let j = index t ~slot ~addr:a in
  if t.addr.(j) < 0 then -1
  else if t.addr.(j) = a || Bytes.get t.imprecise j = '\001' then t.load_pc.(j)
  else -1

let reset_slot t slot =
  let base = slot * t.entries in
  Array.fill t.addr base t.entries (-1);
  Bytes.fill t.imprecise base t.entries '\000';
  t.count.(slot) <- 0

let live t ~slot = t.count.(slot)

(* recount a slot's occupied entries from storage — the engine's
   self-check validates [count] against this *)
let recount t ~slot =
  let base = slot * t.entries in
  let n = ref 0 in
  for j = base to base + t.entries - 1 do
    if t.addr.(j) >= 0 then incr n
  done;
  !n
