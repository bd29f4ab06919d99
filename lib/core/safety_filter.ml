(* Static speculation-safety classification of spawn regions — the
   "Adaptive Flow Director" side of the adaptive policy. The dynamic
   engine can only observe a region after paying for a mis-speculation;
   this filter reads the static code once per spawn point and decides
   up front how aggressively the region may be speculated. *)

type level = Bypass | Conservative | Optimistic

let level_code = function Bypass -> 0 | Conservative -> 1 | Optimistic -> 2

type t = {
  levels : (int, level) Hashtbl.t; (* spawn at_pc -> level *)
  mutable bypass : int;
  mutable conservative : int;
  mutable optimistic : int;
}

(* How much of the region the filter reads. Spawned tasks are bounded
   by the next spawn and by max_spawn_distance anyway; 64 static
   instructions cover the part the new task executes first — the part
   whose behaviour decides whether the spawn was worth a context. *)
let scan_instrs = 64

let is_serializing (instr : Pf_isa.Instr.t) =
  match instr with
  | Pf_isa.Instr.Alu ((Pf_isa.Instr.Div | Pf_isa.Instr.Rem), _, _, _)
  | Pf_isa.Instr.Alui ((Pf_isa.Instr.Div | Pf_isa.Instr.Rem), _, _, _) ->
      true
  | _ -> Pf_isa.Instr.is_indirect_jump instr

let classify_region program ~target_pc ~store_pct ~branch_pct ~serial_ops =
  if not (Pf_isa.Program.in_range program target_pc) then Optimistic
  else begin
    let start = Pf_isa.Program.index_of_pc program target_pc in
    let stop = min (Pf_isa.Program.length program) (start + scan_instrs) in
    let total = ref 0 and stores = ref 0 and branches = ref 0 in
    let serial = ref 0 in
    for idx = start to stop - 1 do
      let instr = program.Pf_isa.Program.code.(idx) in
      incr total;
      if Pf_isa.Instr.is_store instr then incr stores;
      if Pf_isa.Instr.is_cond_branch instr then incr branches;
      if is_serializing instr then incr serial
    done;
    let n = max 1 !total in
    if !serial >= serial_ops then Bypass
    else if
      !stores * 100 >= store_pct * n || !branches * 100 >= branch_pct * n
    then Conservative
    else Optimistic
  end

let of_spawns program spawns ~store_pct ~branch_pct ~serial_ops =
  let t =
    { levels = Hashtbl.create 64; bypass = 0; conservative = 0;
      optimistic = 0 }
  in
  List.iter
    (fun (sp : Spawn_point.t) ->
      let lvl =
        classify_region program ~target_pc:sp.Spawn_point.target_pc
          ~store_pct ~branch_pct ~serial_ops
      in
      (* several spawn points can share an at_pc (the hint cache keys
         on it); keep the most conservative verdict *)
      let lvl =
        match Hashtbl.find_opt t.levels sp.Spawn_point.at_pc with
        | Some prev when level_code prev < level_code lvl -> prev
        | _ -> lvl
      in
      Hashtbl.replace t.levels sp.Spawn_point.at_pc lvl)
    spawns;
  Hashtbl.iter
    (fun _ lvl ->
      match lvl with
      | Bypass -> t.bypass <- t.bypass + 1
      | Conservative -> t.conservative <- t.conservative + 1
      | Optimistic -> t.optimistic <- t.optimistic + 1)
    t.levels;
  t

let level t ~at_pc =
  match Hashtbl.find_opt t.levels at_pc with
  | Some lvl -> lvl
  | None -> Optimistic

let code t ~at_pc = level_code (level t ~at_pc)
let counts t = (t.bypass, t.conservative, t.optimistic)

let pp ppf t =
  Format.fprintf ppf "bypass %d, conservative %d, optimistic %d" t.bypass
    t.conservative t.optimistic
