type t = {
  instructions : int;
  cycles : int;
  branch_mispredicts : int;
  indirect_mispredicts : int;
  return_mispredicts : int;
  spawns : (Pf_core.Spawn_point.category * int) list;
  squashes : int;
  squashed_instrs : int;
  diverted : int;
  tasks_spawned : int;
  max_live_tasks : int;
  l1i_misses : int;
  l1d_misses : int;
  l2_misses : int;
  stall_frontend : int;
  stall_divert : int;
  stall_sched : int;
  stall_exec : int;
}

let count_names =
  [ "instructions"; "cycles"; "branch_mispredicts"; "indirect_mispredicts";
    "return_mispredicts"; "squashes"; "squashed_instrs"; "diverted";
    "tasks_spawned"; "max_live_tasks"; "l1i_misses"; "l1d_misses";
    "l2_misses"; "stall_frontend"; "stall_divert"; "stall_sched";
    "stall_exec" ]

let counts t =
  [| t.instructions; t.cycles; t.branch_mispredicts; t.indirect_mispredicts;
     t.return_mispredicts; t.squashes; t.squashed_instrs; t.diverted;
     t.tasks_spawned; t.max_live_tasks; t.l1i_misses; t.l1d_misses;
     t.l2_misses; t.stall_frontend; t.stall_divert; t.stall_sched;
     t.stall_exec |]

let of_counts a spawns =
  if Array.length a <> List.length count_names then
    invalid_arg "Metrics.of_counts: wrong number of counts";
  { instructions = a.(0); cycles = a.(1); branch_mispredicts = a.(2);
    indirect_mispredicts = a.(3); return_mispredicts = a.(4); spawns;
    squashes = a.(5); squashed_instrs = a.(6); diverted = a.(7);
    tasks_spawned = a.(8); max_live_tasks = a.(9); l1i_misses = a.(10);
    l1d_misses = a.(11); l2_misses = a.(12); stall_frontend = a.(13);
    stall_divert = a.(14); stall_sched = a.(15); stall_exec = a.(16) }

let stall_cycles t =
  t.stall_frontend + t.stall_divert + t.stall_sched + t.stall_exec

let ipc t =
  if t.cycles = 0 then 0. else float_of_int t.instructions /. float_of_int t.cycles

let speedup_pct ~baseline t = 100. *. (ipc t /. ipc baseline -. 1.)

let total_spawns t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.spawns

let pretty_int n =
  let digits = string_of_int (abs n) in
  let len = String.length digits in
  let buf = Buffer.create (len + (len / 3) + 1) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    digits;
  Buffer.contents buf

let pp ppf t =
  let count ppf n = Format.fprintf ppf "%15s" (pretty_int n) in
  Format.fprintf ppf
    "@[<v>instructions      %a@,cycles            %a@,IPC               %15.3f@,\
     branch mispred.   %a@,indirect mispred. %a@,return mispred.   %a@,\
     tasks spawned     %a@,max live tasks    %a@,squashes          %a \
     (%s instrs)@,diverted          %a@,cache misses      L1I %s, L1D %s, L2 %s@,retire stalls     frontend %s, divert %s, sched %s, exec %s@,spawns            %a@]"
    count t.instructions count t.cycles (ipc t) count t.branch_mispredicts
    count t.indirect_mispredicts count t.return_mispredicts
    count t.tasks_spawned count t.max_live_tasks count t.squashes
    (pretty_int t.squashed_instrs) count t.diverted
    (pretty_int t.l1i_misses) (pretty_int t.l1d_misses)
    (pretty_int t.l2_misses) (pretty_int t.stall_frontend)
    (pretty_int t.stall_divert) (pretty_int t.stall_sched)
    (pretty_int t.stall_exec)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (c, n) ->
         Format.fprintf ppf "%s=%s" (Pf_core.Spawn_point.category_name c)
           (pretty_int n)))
    t.spawns
