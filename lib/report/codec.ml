open Pf_uarch

let all_categories = Pf_core.Spawn_point.all_categories
let category_of_name = Pf_core.Spawn_point.category_of_name

(* ---- metrics ---- *)

let metrics_to_json (m : Metrics.t) =
  Json.Obj
    [ ("instructions", Json.Int m.Metrics.instructions);
      ("cycles", Json.Int m.Metrics.cycles);
      ("ipc", Json.Float (Metrics.ipc m));
      ("branch_mispredicts", Json.Int m.Metrics.branch_mispredicts);
      ("indirect_mispredicts", Json.Int m.Metrics.indirect_mispredicts);
      ("return_mispredicts", Json.Int m.Metrics.return_mispredicts);
      ( "spawns",
        Json.List
          (List.map
             (fun (c, n) ->
               Json.Obj
                 [ ("category",
                    Json.String (Pf_core.Spawn_point.category_name c));
                   ("count", Json.Int n) ])
             m.Metrics.spawns) );
      ("squashes", Json.Int m.Metrics.squashes);
      ("squashed_instrs", Json.Int m.Metrics.squashed_instrs);
      ("diverted", Json.Int m.Metrics.diverted);
      ("tasks_spawned", Json.Int m.Metrics.tasks_spawned);
      ("max_live_tasks", Json.Int m.Metrics.max_live_tasks);
      ("l1i_misses", Json.Int m.Metrics.l1i_misses);
      ("l1d_misses", Json.Int m.Metrics.l1d_misses);
      ("l2_misses", Json.Int m.Metrics.l2_misses);
      ("stall_frontend", Json.Int m.Metrics.stall_frontend);
      ("stall_divert", Json.Int m.Metrics.stall_divert);
      ("stall_sched", Json.Int m.Metrics.stall_sched);
      ("stall_exec", Json.Int m.Metrics.stall_exec) ]

let spawn_of_json j =
  let name = Json.to_str (Json.member "category" j) in
  match category_of_name name with
  | Some c -> (c, Json.to_int (Json.member "count" j))
  | None -> raise (Json.Decode_error (Printf.sprintf "unknown spawn category %S" name))

let metrics_of_json j : Metrics.t =
  let int name = Json.to_int (Json.member name j) in
  { Metrics.instructions = int "instructions";
    cycles = int "cycles";
    branch_mispredicts = int "branch_mispredicts";
    indirect_mispredicts = int "indirect_mispredicts";
    return_mispredicts = int "return_mispredicts";
    spawns = List.map spawn_of_json (Json.to_list (Json.member "spawns" j));
    squashes = int "squashes";
    squashed_instrs = int "squashed_instrs";
    diverted = int "diverted";
    tasks_spawned = int "tasks_spawned";
    max_live_tasks = int "max_live_tasks";
    l1i_misses = int "l1i_misses";
    l1d_misses = int "l1d_misses";
    l2_misses = int "l2_misses";
    stall_frontend = int "stall_frontend";
    stall_divert = int "stall_divert";
    stall_sched = int "stall_sched";
    stall_exec = int "stall_exec" }

(* ---- engine counters (Pf_obs.Counters dumps) ---- *)

let counters_to_json (cs : (string * int) list) =
  Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) cs)

let counters_of_json j =
  List.map (fun (n, v) -> (n, Json.to_int v)) (Json.to_obj j)

(* ---- CPI stacks ---- *)

let cpi_stack_to_json ~workload ~label stack =
  Json.Obj
    [ ("workload", Json.String workload);
      ("label", Json.String label);
      ("cpi_stack", Pf_obs.Cpi_stack.to_json stack) ]

let cpi_stack_of_json j =
  ( Json.to_str (Json.member "workload" j),
    Json.to_str (Json.member "label" j),
    Pf_obs.Cpi_stack.of_json (Json.member "cpi_stack" j) )

(* ---- config ---- *)

let config_to_json (c : Config.t) =
  (* additive schema-v1 fields (memory-dependence tracker PR): emitted
     only when they differ from their defaults, so every document — and
     every run-cache digest — produced before the fields existed stays
     byte-identical *)
  let d = Config.superscalar in
  let tracker_fields =
    List.concat
      [ (if c.Config.mem_tracker <> d.Config.mem_tracker then
           [ ("mem_tracker", Json.Bool c.Config.mem_tracker) ]
         else []);
        (if c.Config.tracker_entries <> d.Config.tracker_entries then
           [ ("tracker_entries", Json.Int c.Config.tracker_entries) ]
         else []);
        (if c.Config.mem_sync_threshold <> d.Config.mem_sync_threshold then
           [ ("mem_sync_threshold", Json.Int c.Config.mem_sync_threshold) ]
         else []);
        (if c.Config.safety_store_pct <> d.Config.safety_store_pct then
           [ ("safety_store_pct", Json.Int c.Config.safety_store_pct) ]
         else []);
        (if c.Config.safety_branch_pct <> d.Config.safety_branch_pct then
           [ ("safety_branch_pct", Json.Int c.Config.safety_branch_pct) ]
         else []);
        (if c.Config.safety_serial_ops <> d.Config.safety_serial_ops then
           [ ("safety_serial_ops", Json.Int c.Config.safety_serial_ops) ]
         else []);
        (if c.Config.doacross_sync_distance <> d.Config.doacross_sync_distance
         then
           [ ( "doacross_sync_distance",
               Json.Int c.Config.doacross_sync_distance ) ]
         else []) ]
  in
  Json.Obj
    ([ ("width", Json.Int c.Config.width);
      ("fetch_tasks_per_cycle", Json.Int c.Config.fetch_tasks_per_cycle);
      ("max_tasks", Json.Int c.Config.max_tasks);
      ("rob_entries", Json.Int c.Config.rob_entries);
      ("scheduler_entries", Json.Int c.Config.scheduler_entries);
      ("fus", Json.Int c.Config.fus);
      ("divert_entries", Json.Int c.Config.divert_entries);
      ("retire_width", Json.Int c.Config.retire_width);
      ("min_mispredict_penalty", Json.Int c.Config.min_mispredict_penalty);
      ("frontend_depth", Json.Int c.Config.frontend_depth);
      ("fetch_buffer", Json.Int c.Config.fetch_buffer);
      ("max_spawn_distance", Json.Int c.Config.max_spawn_distance);
      ("min_task_instrs", Json.Int c.Config.min_task_instrs);
      ("spawn_latency", Json.Int c.Config.spawn_latency);
      ("squash_penalty", Json.Int c.Config.squash_penalty);
      ("ras_depth", Json.Int c.Config.ras_depth);
      ("max_cycles_per_instr", Json.Int c.Config.max_cycles_per_instr);
      ("biased_fetch", Json.Bool c.Config.biased_fetch);
      ("shared_history", Json.Bool c.Config.shared_history);
      ("rob_shares", Json.Bool c.Config.rob_shares);
      ("divert_chains", Json.Bool c.Config.divert_chains);
      ("sp_hint", Json.Bool c.Config.sp_hint);
      ("feedback", Json.Bool c.Config.feedback);
      ("split_spawning", Json.Bool c.Config.split_spawning);
      ("no_event_skip", Json.Bool c.Config.no_event_skip) ]
    @ tracker_fields)

let config_of_json j : Config.t =
  let int name = Json.to_int (Json.member name j) in
  let bool name = Json.to_bool (Json.member name j) in
  { Config.width = int "width";
    fetch_tasks_per_cycle = int "fetch_tasks_per_cycle";
    max_tasks = int "max_tasks";
    rob_entries = int "rob_entries";
    scheduler_entries = int "scheduler_entries";
    fus = int "fus";
    divert_entries = int "divert_entries";
    retire_width = int "retire_width";
    min_mispredict_penalty = int "min_mispredict_penalty";
    frontend_depth = int "frontend_depth";
    fetch_buffer = int "fetch_buffer";
    max_spawn_distance = int "max_spawn_distance";
    min_task_instrs = int "min_task_instrs";
    spawn_latency = int "spawn_latency";
    squash_penalty = int "squash_penalty";
    ras_depth = int "ras_depth";
    max_cycles_per_instr = int "max_cycles_per_instr";
    biased_fetch = bool "biased_fetch";
    shared_history = bool "shared_history";
    rob_shares = bool "rob_shares";
    divert_chains = bool "divert_chains";
    sp_hint = bool "sp_hint";
    feedback = bool "feedback";
    split_spawning = bool "split_spawning";
    (* additive schema-v1 field (PR 5): absent in documents written by
       earlier versions, where stepping was always per-cycle *)
    no_event_skip =
      (match Json.member_opt "no_event_skip" j with
      | Some b -> Json.to_bool b
      | None -> false);
    (* additive fields (memory-dependence tracker PR): absent means the
       default, matching [config_to_json]'s only-when-non-default rule *)
    mem_tracker =
      (match Json.member_opt "mem_tracker" j with
      | Some b -> Json.to_bool b
      | None -> Config.superscalar.Config.mem_tracker);
    tracker_entries =
      (match Json.member_opt "tracker_entries" j with
      | Some v -> Json.to_int v
      | None -> Config.superscalar.Config.tracker_entries);
    mem_sync_threshold =
      (match Json.member_opt "mem_sync_threshold" j with
      | Some v -> Json.to_int v
      | None -> Config.superscalar.Config.mem_sync_threshold);
    safety_store_pct =
      (match Json.member_opt "safety_store_pct" j with
      | Some v -> Json.to_int v
      | None -> Config.superscalar.Config.safety_store_pct);
    safety_branch_pct =
      (match Json.member_opt "safety_branch_pct" j with
      | Some v -> Json.to_int v
      | None -> Config.superscalar.Config.safety_branch_pct);
    safety_serial_ops =
      (match Json.member_opt "safety_serial_ops" j with
      | Some v -> Json.to_int v
      | None -> Config.superscalar.Config.safety_serial_ops);
    (* additive field (DOACROSS PR), same only-when-non-default rule *)
    doacross_sync_distance =
      (match Json.member_opt "doacross_sync_distance" j with
      | Some v -> Json.to_int v
      | None -> Config.superscalar.Config.doacross_sync_distance) }

(* ---- run records ----

   Defined below the run cache, which encodes exactly this record; the
   JSON form is a report document's "runs" element and a serve reply's
   "run" member. *)

type run = {
  workload : string;
  label : string;
  policy : string;
  config : Config.t;
  window : int;
  instructions : int;
  static_spawns : int;
  wall_s : float;
  metrics : Metrics.t;
  counters : (string * int) list;
}

let run_to_json r =
  Json.Obj
    [ ("workload", Json.String r.workload);
      ("label", Json.String r.label);
      ("policy", Json.String r.policy);
      ("window", Json.Int r.window);
      ("instructions", Json.Int r.instructions);
      ("static_spawns", Json.Int r.static_spawns);
      ("wall_s", Json.Float r.wall_s);
      ("config", config_to_json r.config);
      ("metrics", metrics_to_json r.metrics);
      ("counters", counters_to_json r.counters) ]

let run_of_json j =
  { workload = Json.to_str (Json.member "workload" j);
    label = Json.to_str (Json.member "label" j);
    policy = Json.to_str (Json.member "policy" j);
    window = Json.to_int (Json.member "window" j);
    instructions = Json.to_int (Json.member "instructions" j);
    static_spawns = Json.to_int (Json.member "static_spawns" j);
    wall_s = Json.to_float (Json.member "wall_s" j);
    config = config_of_json (Json.member "config" j);
    metrics = metrics_of_json (Json.member "metrics" j);
    (* additive schema-v1 field: absent in documents written before the
       counter registry existed *)
    counters =
      (match Json.member_opt "counters" j with
      | Some c -> counters_of_json c
      | None -> []) }

(* ---- CSV ---- *)

let metrics_csv_header =
  [ "instructions"; "cycles"; "ipc"; "branch_mispredicts";
    "indirect_mispredicts"; "return_mispredicts"; "tasks_spawned";
    "max_live_tasks"; "squashes"; "squashed_instrs"; "diverted";
    "l1i_misses"; "l1d_misses"; "l2_misses"; "stall_frontend";
    "stall_divert"; "stall_sched"; "stall_exec" ]
  @ List.map
      (fun c -> "spawns_" ^ Pf_core.Spawn_point.category_name c)
      all_categories

let metrics_csv_cells (m : Metrics.t) =
  let spawn_count c =
    List.fold_left
      (fun acc (c', n) -> if c' = c then acc + n else acc)
      0 m.Metrics.spawns
  in
  List.map string_of_int
    [ m.Metrics.instructions; m.Metrics.cycles ]
  @ [ Printf.sprintf "%.6f" (Metrics.ipc m) ]
  @ List.map string_of_int
      [ m.Metrics.branch_mispredicts; m.Metrics.indirect_mispredicts;
        m.Metrics.return_mispredicts; m.Metrics.tasks_spawned;
        m.Metrics.max_live_tasks; m.Metrics.squashes;
        m.Metrics.squashed_instrs; m.Metrics.diverted;
        m.Metrics.l1i_misses; m.Metrics.l1d_misses; m.Metrics.l2_misses;
        m.Metrics.stall_frontend; m.Metrics.stall_divert;
        m.Metrics.stall_sched; m.Metrics.stall_exec ]
  @ List.map (fun c -> string_of_int (spawn_count c)) all_categories
