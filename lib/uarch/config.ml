type t = {
  width : int;
  fetch_tasks_per_cycle : int;
  max_tasks : int;
  rob_entries : int;
  scheduler_entries : int;
  fus : int;
  divert_entries : int;
  retire_width : int;
  min_mispredict_penalty : int;
  frontend_depth : int;
  fetch_buffer : int;
  max_spawn_distance : int;
  min_task_instrs : int;
  spawn_latency : int;
  squash_penalty : int;
  ras_depth : int;
  max_cycles_per_instr : int;
  biased_fetch : bool;
  shared_history : bool;
  rob_shares : bool;
  divert_chains : bool;
  sp_hint : bool;
  feedback : bool;
  split_spawning : bool;
  no_event_skip : bool;
  mem_tracker : bool;
  tracker_entries : int;
  mem_sync_threshold : int;
  safety_store_pct : int;
  safety_branch_pct : int;
  safety_serial_ops : int;
  doacross_sync_distance : int;
}

let superscalar =
  { width = 8;
    fetch_tasks_per_cycle = 1;
    max_tasks = 1;
    rob_entries = 512;
    scheduler_entries = 64;
    fus = 8;
    divert_entries = 128;
    retire_width = 8;
    min_mispredict_penalty = 8;
    frontend_depth = 4;
    fetch_buffer = 32;
    max_spawn_distance = 512;
    min_task_instrs = 4;
    spawn_latency = 1;
    squash_penalty = 10;
    ras_depth = 32;
    max_cycles_per_instr = 100;
    biased_fetch = true;
    shared_history = false;
    rob_shares = true;
    divert_chains = true;
    sp_hint = true;
    feedback = true;
    split_spawning = false;
    no_event_skip = false;
    mem_tracker = false;
    tracker_entries = 64;
    mem_sync_threshold = 1;
    safety_store_pct = 15;
    safety_branch_pct = 7;
    safety_serial_ops = 1;
    doacross_sync_distance = 1 }

let polyflow = { superscalar with fetch_tasks_per_cycle = 2; max_tasks = 8 }
let adaptive = { polyflow with mem_tracker = true }
let doacross = { polyflow with mem_tracker = true }

let for_policy : Pf_core.Policy.t -> t = function
  | No_spawn -> superscalar
  | Adaptive -> adaptive
  | Doacross -> doacross
  | Categories _ | Postdoms | Postdoms_minus _ | Rec_pred | Dmt -> polyflow

let l1i_line_mask =
  lnot (Pf_cache.Hierarchy.default_params.Pf_cache.Hierarchy.l1i_line - 1)

let pp ppf c =
  Format.fprintf ppf
    "@[<v>Pipeline Width        %d instrs/cycle@,\
     Branch Predictor      16Kbit gshare, 8 bits of global history@,\
     Misprediction Penalty At least %d cycles@,\
     Reorder Buffer        %d entries, dynamically shared@,\
     Scheduler             %d entries, dynamically shared@,\
     Functional Units      %d identical general purpose units@,\
     L1 I-Cache            8Kbytes, 2-way set assoc., 128 byte lines, 10 cycle miss@,\
     L1 D-Cache            16Kbytes, 4-way set assoc., 64 byte lines, 10 cycle miss@,\
     L2 Cache              512Kbytes, 8-way set assoc., 128 byte lines, 100 cycle miss@,\
     Divert Queue          %d entries, dynamically shared@,\
     Tasks                 %d@]"
    c.width c.min_mispredict_penalty c.rob_entries c.scheduler_entries c.fus
    c.divert_entries c.max_tasks
