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
    mem_tracker = false;
    tracker_entries = 64;
    mem_sync_threshold = 1;
    safety_store_pct = 15;
    safety_branch_pct = 7;
    safety_serial_ops = 1;
    doacross_sync_distance = 1 }

let polyflow = { superscalar with fetch_tasks_per_cycle = 2; max_tasks = 8 }

let for_policy p =
  match (Pf_core.Policy.descriptor p).machine with
  | One_task -> superscalar
  | Polyflow { tracker } -> { polyflow with mem_tracker = tracker }

type presence = Required | Constant | Non_default

type field = {
  name : string;
  flag : bool;
  presence : presence;
  lo : int;
  hi : int;
  get : t -> int;
  set : t -> int -> t;
}

let int ?(presence = Required) ?(lo = 0) ?(hi = max_int) name get set =
  { name; flag = false; presence; lo; hi; get; set }

let flag ?(presence = Required) name get set =
  { name; flag = true; presence; lo = 0; hi = 1;
    get = (fun c -> Bool.to_int (get c));
    set = (fun c v -> set c (v <> 0)) }

(* Record order. The fields after [split_spawning] came later, so their
   members are optional. The caps bound what a field allocates: the
   tracker's [max_tasks * tracker_entries] words, [ras_depth] words per
   task, and the two queues. [no_event_skip] has no field: stepping the
   cycle loop is [Engine.Stepped], which only tests choose. *)
let fields =
  [ int "width" (fun c -> c.width) (fun c v -> { c with width = v });
    int "fetch_tasks_per_cycle" (fun c -> c.fetch_tasks_per_cycle)
      (fun c v -> { c with fetch_tasks_per_cycle = v });
    int "max_tasks" ~lo:1 ~hi:256 (fun c -> c.max_tasks)
      (fun c v -> { c with max_tasks = v });
    int "rob_entries" (fun c -> c.rob_entries)
      (fun c v -> { c with rob_entries = v });
    int "scheduler_entries" ~hi:65_536 (fun c -> c.scheduler_entries)
      (fun c v -> { c with scheduler_entries = v });
    int "fus" (fun c -> c.fus) (fun c v -> { c with fus = v });
    int "divert_entries" ~hi:65_536 (fun c -> c.divert_entries)
      (fun c v -> { c with divert_entries = v });
    int "retire_width" (fun c -> c.retire_width)
      (fun c v -> { c with retire_width = v });
    int "min_mispredict_penalty" (fun c -> c.min_mispredict_penalty)
      (fun c v -> { c with min_mispredict_penalty = v });
    int "frontend_depth" (fun c -> c.frontend_depth)
      (fun c v -> { c with frontend_depth = v });
    int "fetch_buffer" (fun c -> c.fetch_buffer)
      (fun c v -> { c with fetch_buffer = v });
    int "max_spawn_distance" (fun c -> c.max_spawn_distance)
      (fun c v -> { c with max_spawn_distance = v });
    int "min_task_instrs" (fun c -> c.min_task_instrs)
      (fun c v -> { c with min_task_instrs = v });
    int "spawn_latency" (fun c -> c.spawn_latency)
      (fun c v -> { c with spawn_latency = v });
    int "squash_penalty" (fun c -> c.squash_penalty)
      (fun c v -> { c with squash_penalty = v });
    int "ras_depth" ~lo:1 ~hi:4_096 (fun c -> c.ras_depth)
      (fun c v -> { c with ras_depth = v });
    int "max_cycles_per_instr" (fun c -> c.max_cycles_per_instr)
      (fun c v -> { c with max_cycles_per_instr = v });
    flag "biased_fetch" (fun c -> c.biased_fetch)
      (fun c v -> { c with biased_fetch = v });
    flag "shared_history" (fun c -> c.shared_history)
      (fun c v -> { c with shared_history = v });
    flag "rob_shares" (fun c -> c.rob_shares)
      (fun c v -> { c with rob_shares = v });
    flag "divert_chains" (fun c -> c.divert_chains)
      (fun c v -> { c with divert_chains = v });
    flag "sp_hint" (fun c -> c.sp_hint) (fun c v -> { c with sp_hint = v });
    flag "feedback" (fun c -> c.feedback) (fun c v -> { c with feedback = v });
    flag "split_spawning" (fun c -> c.split_spawning)
      (fun c v -> { c with split_spawning = v });
    flag "no_event_skip" ~presence:Constant (fun _ -> false) (fun c _ -> c);
    flag "mem_tracker" ~presence:Non_default (fun c -> c.mem_tracker)
      (fun c v -> { c with mem_tracker = v });
    int "tracker_entries" ~presence:Non_default ~lo:1 ~hi:4_096
      (fun c -> c.tracker_entries) (fun c v -> { c with tracker_entries = v });
    int "mem_sync_threshold" ~presence:Non_default
      (fun c -> c.mem_sync_threshold)
      (fun c v -> { c with mem_sync_threshold = v });
    int "safety_store_pct" ~presence:Non_default (fun c -> c.safety_store_pct)
      (fun c v -> { c with safety_store_pct = v });
    int "safety_branch_pct" ~presence:Non_default
      (fun c -> c.safety_branch_pct)
      (fun c v -> { c with safety_branch_pct = v });
    int "safety_serial_ops" ~presence:Non_default
      (fun c -> c.safety_serial_ops)
      (fun c v -> { c with safety_serial_ops = v });
    int "doacross_sync_distance" ~presence:Non_default
      (fun c -> c.doacross_sync_distance)
      (fun c v -> { c with doacross_sync_distance = v }) ]

let check c =
  match List.find_opt (fun f -> f.get c < f.lo || f.get c > f.hi) fields with
  | None -> Ok ()
  | Some f ->
      Error
        (Printf.sprintf "%S must be %s (got %d)" f.name
           (if f.hi = max_int then Printf.sprintf ">= %d" f.lo
            else Printf.sprintf "in [%d, %d]" f.lo f.hi)
           (f.get c))

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
