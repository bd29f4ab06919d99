(* Direct-mapped on the instruction PC: the Task Spawn Unit probes the
   index for every spawn candidate the fetch stream surfaces, so the
   lookup must cost a bounds check and an array read, not a Hashtbl
   probe. Code PCs are small and dense (program text), so a pc-indexed
   array of occurrence arrays wastes little. *)
type t = { by_pc : int array array }

let none = [||]

let build (tr : Tracer.t) : t =
  let pcs = tr.Tracer.pc in
  let max_pc = Array.fold_left max (-1) pcs in
  let counts = Array.make (max_pc + 2) 0 in
  Array.iter (fun pc -> counts.(pc) <- counts.(pc) + 1) pcs;
  let by_pc = Array.make (max_pc + 2) none in
  Array.iteri (fun pc c -> if c > 0 then by_pc.(pc) <- Array.make c 0) counts;
  (* reuse [counts] as per-pc fill cursors *)
  let fill = counts in
  Array.fill fill 0 (Array.length fill) 0;
  Array.iteri
    (fun i pc ->
      by_pc.(pc).(fill.(pc)) <- i;
      fill.(pc) <- fill.(pc) + 1)
    pcs;
  { by_pc }

let next_after (t : t) ~pc ~index =
  if pc < 0 || pc >= Array.length t.by_pc then -1
  else begin
    let occs = t.by_pc.(pc) in
    (* binary search: first element > index *)
    let n = Array.length occs in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if occs.(mid) <= index then lo := mid + 1 else hi := mid
    done;
    if !lo < n then occs.(!lo) else -1
  end

let count (t : t) ~pc =
  if pc >= 0 && pc < Array.length t.by_pc then Array.length t.by_pc.(pc)
  else 0
