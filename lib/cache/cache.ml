type t = {
  tags : int array;       (* nsets * assoc; -1 = invalid *)
  lru : int array;        (* lower = older; per entry *)
  nsets : int;
  assoc : int;
  line_shift : int;
  mutable clock : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k v = if v = 1 then k else go (k + 1) (v / 2) in
  go 0 n

let create ~size_bytes ~assoc ~line_bytes () =
  if not (is_pow2 line_bytes) then invalid_arg "Cache: line size not a power of 2";
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache: size not divisible by assoc * line";
  let nsets = size_bytes / (assoc * line_bytes) in
  if not (is_pow2 nsets) then invalid_arg "Cache: set count not a power of 2";
  { tags = Array.make (nsets * assoc) (-1);
    lru = Array.make (nsets * assoc) 0;
    nsets;
    assoc;
    line_shift = log2 line_bytes;
    clock = 0;
    misses = 0 }

(* the way holding [tag] in [set], or -1: an int result (rather than an
   option) and a loop (rather than a local recursive function, a closure
   over [t], [base] and [tag] allocated per call) keep the per-access
   path of the simulator's hottest callee allocation-free *)
let find_way t set tag =
  let base = set * t.assoc in
  let w = ref 0 in
  while !w < t.assoc && t.tags.(base + !w) <> tag do
    incr w
  done;
  if !w < t.assoc then !w else -1

let probe t addr =
  let line = addr lsr t.line_shift in
  find_way t (line land (t.nsets - 1)) line >= 0

let access t addr =
  let line = addr lsr t.line_shift in
  let set = line land (t.nsets - 1) in
  let tag = line in
  let base = set * t.assoc in
  t.clock <- t.clock + 1;
  let w = find_way t set tag in
  if w >= 0 then begin
    t.lru.(base + w) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict an invalid way if present, else the LRU way *)
    let inv = find_way t set (-1) in
    let w =
      if inv >= 0 then inv
      else begin
        let victim = ref 0 in
        for w = 1 to t.assoc - 1 do
          if t.lru.(base + w) < t.lru.(base + !victim) then victim := w
        done;
        !victim
      end
    in
    t.tags.(base + w) <- tag;
    t.lru.(base + w) <- t.clock;
    false
  end

let misses t = t.misses
