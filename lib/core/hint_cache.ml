(* Direct-mapped on the fetch PC: the engine probes the hint cache for
   every fetched instruction, so [find] must cost an array read, not a
   Hashtbl probe (hashing dominated the fetch stage before this).
   Program text is small and dense, so a pc-indexed array of lists
   wastes little; it is sized once, to the highest hinted pc, so a run
   with no static spawns allocates none. Capacity misses stay
   unmodelled as in the paper. *)
type t = { slots : Spawn_point.t list array }

let of_spawns spawns =
  let len =
    List.fold_left
      (fun len (s : Spawn_point.t) -> max len (s.Spawn_point.at_pc + 1))
      0 spawns
  in
  let slots = Array.make len [] in
  List.iter
    (fun (s : Spawn_point.t) ->
      let pc = s.Spawn_point.at_pc in
      if pc < 0 then invalid_arg "Hint_cache.of_spawns: negative pc";
      let existing = slots.(pc) in
      if not (List.mem s existing) then slots.(pc) <- existing @ [ s ])
    spawns;
  { slots }

let find t ~pc =
  if pc >= 0 && pc < Array.length t.slots then t.slots.(pc) else []

let size t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.slots
