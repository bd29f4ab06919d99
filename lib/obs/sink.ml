(* Slot-cycle reason codes. The engine classifies every (cycle, slot)
   pair into exactly one of these; the codes are dense so sinks can use
   them as array indices. *)
let r_base = 0
let r_icache = 1
let r_branch_mispredict = 2
let r_divert_wait = 3
let r_memory = 4
let r_squash_recovery = 5
let r_spawn_overhead = 6
let r_idle = 7
let r_mem_violation = 8
let n_reasons = 9

let reason_names =
  [| "base"; "icache"; "branch_mispredict"; "divert_wait"; "memory";
     "squash_recovery"; "spawn_overhead"; "idle"; "mem_violation" |]

let reason_name r =
  if r < 0 || r >= n_reasons then
    invalid_arg (Printf.sprintf "Sink.reason_name: bad code %d" r);
  reason_names.(r)

type t = {
  on_retire : cycle:int -> slot:int -> index:int -> unit;
  on_task_start : cycle:int -> slot:int -> task:int -> parent_slot:int ->
    at_pc:int -> unit;
  on_task_end : cycle:int -> slot:int -> task:int -> unit;
  on_squash : cycle:int -> slot:int -> tasks:int -> instrs:int -> unit;
  on_slot_cycle : cycle:int -> slot:int -> reason:int -> unit;
}

let null =
  { on_retire = (fun ~cycle:_ ~slot:_ ~index:_ -> ());
    on_task_start = (fun ~cycle:_ ~slot:_ ~task:_ ~parent_slot:_ ~at_pc:_ -> ());
    on_task_end = (fun ~cycle:_ ~slot:_ ~task:_ -> ());
    on_squash = (fun ~cycle:_ ~slot:_ ~tasks:_ ~instrs:_ -> ());
    on_slot_cycle = (fun ~cycle:_ ~slot:_ ~reason:_ -> ()) }

let is_null s = s == null

let tee a b =
  { on_retire =
      (fun ~cycle ~slot ~index ->
        a.on_retire ~cycle ~slot ~index;
        b.on_retire ~cycle ~slot ~index);
    on_task_start =
      (fun ~cycle ~slot ~task ~parent_slot ~at_pc ->
        a.on_task_start ~cycle ~slot ~task ~parent_slot ~at_pc;
        b.on_task_start ~cycle ~slot ~task ~parent_slot ~at_pc);
    on_task_end =
      (fun ~cycle ~slot ~task ->
        a.on_task_end ~cycle ~slot ~task;
        b.on_task_end ~cycle ~slot ~task);
    on_squash =
      (fun ~cycle ~slot ~tasks ~instrs ->
        a.on_squash ~cycle ~slot ~tasks ~instrs;
        b.on_squash ~cycle ~slot ~tasks ~instrs);
    on_slot_cycle =
      (fun ~cycle ~slot ~reason ->
        a.on_slot_cycle ~cycle ~slot ~reason;
        b.on_slot_cycle ~cycle ~slot ~reason) }
