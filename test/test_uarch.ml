(* Tests for pf_uarch: the timing engine, configs, metrics, and the
   qualitative behaviours the paper's evaluation relies on. *)

open Pf_isa
open Pf_uarch

let case name f = Alcotest.test_case name `Quick f

(* Deterministic pseudo-random filler for workload data. *)
let fill_random machine ~base ~words ~seed =
  let state = ref (Int64.of_int (seed * 2654435761 + 1)) in
  for k = 0 to words - 1 do
    state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    Machine.write_i64 machine (base + (8 * k)) (Int64.shift_right_logical !state 16)
  done

(* A loop over random data with a hard-to-predict if-then-else: the
   bread-and-butter hammock workload. *)
let hammock_workload ~iters =
  let open Pf_mini.Ast in
  let prog =
    { funcs =
        [ { name = "main"; params = [];
            body =
              [ Let ("acc", i 0); Let ("b", i 0) ]
              @ for_ "k" ~init:(i 0) ~cond:(v "k" <: i iters) ~step:(v "k" +: i 1)
                  [ Let ("x", ld8 (idx8 (Addr "data") (v "k" &: i 1023)));
                    If
                      ( (v "x" &: i 1) ==: i 0,
                        [ Set ("acc", v "acc" +: (v "x" *: i 3));
                          Set ("acc", v "acc" ^: (v "x" >>: i 2));
                          Set ("b", v "b" +: i 1) ],
                        [ Set ("acc", v "acc" -: v "x");
                          Set ("acc", v "acc" +: (v "x" >>: i 3));
                          Set ("b", v "b" -: i 1) ] );
                    Set ("acc", v "acc" +: v "b") ]
              @ [ Set ("result", v "acc") ] } ];
      globals = [ ("result", 8); ("data", 8 * 1024) ] }
  in
  let c = Pf_mini.Compile.compile prog in
  let data = c.Pf_mini.Compile.address_of "data" in
  ( c.Pf_mini.Compile.program,
    fun m -> fill_random m ~base:data ~words:1024 ~seed:7 )

let prepare_hammock ?(iters = 600) ?(window = 30_000) () =
  let program, setup = hammock_workload ~iters in
  Run.prepare program ~setup ~fast_forward:100 ~window

let test_baseline_completes () =
  let prep = prepare_hammock () in
  let m = Run.baseline prep in
  Alcotest.(check int) "all instructions retired"
    (Pf_trace.Tracer.length prep.Run.trace)
    m.Metrics.instructions;
  let ipc = Metrics.ipc m in
  Alcotest.(check bool)
    (Printf.sprintf "IPC %.2f within (0.05, 8)" ipc)
    true
    (ipc > 0.05 && ipc < 8.0)

let test_baseline_sees_mispredicts () =
  let prep = prepare_hammock () in
  let m = Run.baseline prep in
  Alcotest.(check bool) "random branch mispredicts" true
    (m.Metrics.branch_mispredicts > 50)

let test_determinism () =
  let prep = prepare_hammock ~iters:200 ~window:8_000 () in
  let a = Run.simulate prep ~policy:Pf_core.Policy.Postdoms in
  let b = Run.simulate prep ~policy:Pf_core.Policy.Postdoms in
  Alcotest.(check int) "same cycles" a.Metrics.cycles b.Metrics.cycles;
  Alcotest.(check int) "same spawns" (Metrics.total_spawns a) (Metrics.total_spawns b)

let test_polyflow_spawns_tasks () =
  let prep = prepare_hammock () in
  let m = Run.simulate prep ~policy:Pf_core.Policy.Postdoms in
  Alcotest.(check bool) "tasks spawned" true (m.Metrics.tasks_spawned > 10);
  Alcotest.(check bool) "multiple live tasks" true (m.Metrics.max_live_tasks >= 2);
  Alcotest.(check int) "still retires everything"
    (Pf_trace.Tracer.length prep.Run.trace)
    m.Metrics.instructions

let test_hammock_spawning_beats_superscalar () =
  let prep = prepare_hammock () in
  let base = Run.baseline prep in
  let ham =
    Run.simulate prep ~policy:(Pf_core.Policy.Categories [ Pf_core.Spawn_point.Hammock ])
  in
  let speedup = Metrics.speedup_pct ~baseline:base ham in
  Alcotest.(check bool)
    (Printf.sprintf "hammock speedup %.1f%% positive" speedup)
    true (speedup > 1.0)

let test_no_spawn_on_polyflow_config_matches_superscalar_order () =
  (* the PolyFlow SMT with zero spawns behaves like the superscalar *)
  let prep = prepare_hammock ~iters:200 ~window:8_000 () in
  let ss = Run.simulate prep ~config:Config.superscalar ~policy:Pf_core.Policy.No_spawn in
  let pf = Run.simulate prep ~config:Config.polyflow ~policy:Pf_core.Policy.No_spawn in
  Alcotest.(check int) "identical cycles" ss.Metrics.cycles pf.Metrics.cycles

(* Call-heavy workload for procFT spawning. *)
let call_workload ~iters =
  let open Pf_mini.Ast in
  let prog =
    { funcs =
        [ { name = "main"; params = [];
            body =
              [ Let ("acc", i 0) ]
              @ for_ "k" ~init:(i 0) ~cond:(v "k" <: i iters) ~step:(v "k" +: i 1)
                  [ Let ("r", Call ("work", [ v "k" ]));
                    Set ("acc", v "acc" +: v "r") ]
              @ [ Set ("result", v "acc") ] };
          { name = "work"; params = [ "n" ];
            body =
              [ Let ("s", v "n");
                Set ("s", (v "s" *: i 17) +: i 3);
                Set ("s", v "s" ^: (v "s" >>: i 4));
                Set ("s", v "s" +: (v "n" *: v "n"));
                Set ("s", v "s" &: i 0xffff);
                Return (Some (v "s")) ] } ];
      globals = [ ("result", 8) ] }
  in
  (Pf_mini.Compile.compile prog).Pf_mini.Compile.program

let test_procft_spawning_runs () =
  let program = call_workload ~iters:400 in
  let prep = Run.prepare program ~setup:(fun _ -> ()) ~fast_forward:50 ~window:15_000 in
  let m =
    Run.simulate prep ~policy:(Pf_core.Policy.Categories [ Pf_core.Spawn_point.Proc_ft ])
  in
  Alcotest.(check bool) "procFT spawns happen" true (m.Metrics.tasks_spawned > 5);
  let spawned_cats = List.map fst m.Metrics.spawns in
  Alcotest.(check bool) "only procFT category" true
    (List.for_all (fun c -> c = Pf_core.Spawn_point.Proc_ft) spawned_cats)

(* Cross-task memory dependence: a loop-carried value through memory,
   spawned as loop iterations, must trigger squashes and then learn. *)
let memory_dep_workload ~iters =
  let open Pf_mini.Ast in
  let prog =
    { funcs =
        [ { name = "main"; params = [];
            body =
              [ st8 (Addr "cell") (i 1) ]
              @ for_ "k" ~init:(i 0) ~cond:(v "k" <: i iters) ~step:(v "k" +: i 1)
                  [ Let ("x", ld8 (Addr "cell"));
                    Let ("y", ld8 (idx8 (Addr "data") (v "k" &: i 255)));
                    If
                      ( (v "y" &: i 1) ==: i 0,
                        [ Set ("x", v "x" +: (v "y" &: i 7)) ],
                        [ Set ("x", v "x" ^: v "y") ] );
                    st8 (Addr "cell") (v "x") ]
              @ [ Set ("result", ld8 (Addr "cell")) ] } ];
      globals = [ ("result", 8); ("cell", 8); ("data", 8 * 256) ] }
  in
  let c = Pf_mini.Compile.compile prog in
  let data = c.Pf_mini.Compile.address_of "data" in
  ( c.Pf_mini.Compile.program,
    fun m -> fill_random m ~base:data ~words:256 ~seed:3 )

let test_memory_violations_squash_and_recover () =
  let program, setup = memory_dep_workload ~iters:400 in
  let prep = Run.prepare program ~setup ~fast_forward:20 ~window:15_000 in
  let m = Run.simulate prep ~policy:Pf_core.Policy.Postdoms in
  Alcotest.(check int) "completes despite violations"
    (Pf_trace.Tracer.length prep.Run.trace)
    m.Metrics.instructions;
  Alcotest.(check bool) "diverts or squashes observed" true
    (m.Metrics.diverted > 0 || m.Metrics.squashes > 0)

let test_rec_pred_policy_runs () =
  let prep = prepare_hammock () in
  let m = Run.simulate prep ~policy:Pf_core.Policy.Rec_pred in
  Alcotest.(check int) "completes"
    (Pf_trace.Tracer.length prep.Run.trace)
    m.Metrics.instructions;
  Alcotest.(check bool) "dynamic spawns happen after warm-up" true
    (m.Metrics.tasks_spawned > 0)

let test_rec_pred_close_to_postdoms () =
  let prep = prepare_hammock ~iters:1500 ~window:60_000 () in
  let base = Run.baseline prep in
  let pd = Run.simulate prep ~policy:Pf_core.Policy.Postdoms in
  let rp = Run.simulate prep ~policy:Pf_core.Policy.Rec_pred in
  let s_pd = Metrics.speedup_pct ~baseline:base pd in
  let s_rp = Metrics.speedup_pct ~baseline:base rp in
  Alcotest.(check bool)
    (Printf.sprintf "rec_pred %.1f%% within reach of postdoms %.1f%%" s_rp s_pd)
    true
    (s_rp > s_pd *. 0.3 -. 2.0);
  Alcotest.(check bool) "rec_pred does not exceed postdoms wildly" true
    (s_rp < s_pd +. 15.0)

let test_max_tasks_respected () =
  let prep = prepare_hammock () in
  let cfg = { Config.polyflow with Config.max_tasks = 3 } in
  let m = Run.simulate prep ~config:cfg ~policy:Pf_core.Policy.Postdoms in
  Alcotest.(check bool) "at most 3 live tasks" true (m.Metrics.max_live_tasks <= 3)

(* Each ablation variant must still complete and retire everything. *)
let test_ablation_variants_complete () =
  let prep = prepare_hammock ~iters:300 ~window:10_000 () in
  let variants =
    [ { Config.polyflow with Config.biased_fetch = false };
      { Config.polyflow with Config.shared_history = true };
      { Config.polyflow with Config.rob_shares = false };
      { Config.polyflow with Config.divert_chains = false };
      { Config.polyflow with Config.sp_hint = false };
      { Config.polyflow with Config.feedback = false };
      { Config.polyflow with Config.max_spawn_distance = 64 } ]
  in
  List.iter
    (fun cfg ->
      let m = Run.simulate ~config:cfg prep ~policy:Pf_core.Policy.Postdoms in
      Alcotest.(check int) "retires the window"
        (Pf_trace.Tracer.length prep.Run.trace)
        m.Metrics.instructions)
    variants

let test_dmt_policy () =
  let program = call_workload ~iters:400 in
  let prep = Run.prepare program ~setup:(fun _ -> ()) ~fast_forward:50 ~window:15_000 in
  let m = Run.simulate prep ~policy:Pf_core.Policy.Dmt in
  Alcotest.(check int) "completes"
    (Pf_trace.Tracer.length prep.Run.trace)
    m.Metrics.instructions;
  Alcotest.(check bool) "dmt spawns dynamically" true (m.Metrics.tasks_spawned > 0);
  List.iter
    (fun (c, _) ->
      Alcotest.(check bool) "only fall-through categories" true
        (c = Pf_core.Spawn_point.Loop_ft || c = Pf_core.Spawn_point.Proc_ft))
    m.Metrics.spawns;
  Alcotest.(check int) "dmt has no static spawns" 0
    (List.length (Pf_core.Policy.select Pf_core.Policy.Dmt prep.Run.all_spawns))

let test_shared_history_hurts_multitask_prediction () =
  (* with several tasks interleaving fetch, a shared history register is
     scrambled and mispredicts rise relative to per-task registers *)
  let prep = prepare_hammock ~iters:1000 ~window:40_000 () in
  let per_task = Run.simulate prep ~policy:Pf_core.Policy.Postdoms in
  let shared =
    Run.simulate
      ~config:{ Config.polyflow with Config.shared_history = true }
      prep ~policy:Pf_core.Policy.Postdoms
  in
  Alcotest.(check bool)
    (Printf.sprintf "shared-history mispredicts %d >= per-task %d"
       shared.Metrics.branch_mispredicts per_task.Metrics.branch_mispredicts)
    true
    (shared.Metrics.branch_mispredicts >= per_task.Metrics.branch_mispredicts)

let test_task_scaling_monotone () =
  (* more task contexts should not hurt the hammock workload *)
  let prep = prepare_hammock ~iters:500 ~window:20_000 () in
  let speedup_at tasks =
    let cfg = { Config.polyflow with Config.max_tasks = tasks } in
    let m = Run.simulate ~config:cfg prep ~policy:Pf_core.Policy.Postdoms in
    Metrics.speedup_pct ~baseline:(Run.baseline prep) m
  in
  let s2 = speedup_at 2 and s8 = speedup_at 8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 tasks (%.1f%%) >= 2 tasks (%.1f%%) - slack" s8 s2)
    true
    (s8 >= s2 -. 3.0)

let test_self_check_mode () =
  (* PF_CHECK validates counters and task-region invariants every 64
     cycles; any accounting bug fails the run loudly *)
  Unix.putenv "PF_CHECK" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PF_CHECK" "")
    (fun () ->
      let prep = prepare_hammock ~iters:400 ~window:15_000 () in
      List.iter
        (fun policy ->
          let m = Run.simulate prep ~policy in
          Alcotest.(check int) "retires everything"
            (Pf_trace.Tracer.length prep.Run.trace)
            m.Metrics.instructions)
        [ Pf_core.Policy.No_spawn; Pf_core.Policy.Postdoms; Pf_core.Policy.Rec_pred ])

(* Property: the engine completes and retires exactly the window under
   randomly drawn (but legal) machine configurations. *)
let prop_random_configs_complete =
  let gen =
    QCheck.Gen.(
      map3
        (fun (width, tasks) (rob, sched) (divert, dist) ->
          { Config.polyflow with
            Config.width;
            fetch_tasks_per_cycle = min 2 tasks;
            max_tasks = tasks;
            rob_entries = rob;
            scheduler_entries = sched;
            divert_entries = divert;
            max_spawn_distance = dist })
        (pair (int_range 2 8) (int_range 1 8))
        (pair (int_range 128 512) (int_range 24 64))
        (pair (int_range 16 128) (int_range 32 1024)))
  in
  QCheck.Test.make ~name:"random configurations retire the whole window"
    ~count:12 (QCheck.make gen)
    (fun cfg ->
      let prep = prepare_hammock ~iters:200 ~window:6_000 () in
      let m = Run.simulate ~config:cfg prep ~policy:Pf_core.Policy.Postdoms in
      m.Metrics.instructions = Pf_trace.Tracer.length prep.Run.trace)

let test_stall_attribution () =
  let prep = prepare_hammock ~iters:400 ~window:15_000 () in
  let b = Run.baseline prep in
  Alcotest.(check bool) "stall cycles bounded by total cycles" true
    (Metrics.stall_cycles b <= b.Metrics.cycles);
  Alcotest.(check bool) "a random-branch baseline has frontend stalls" true
    (b.Metrics.stall_frontend > 0);
  let p = Run.simulate prep ~policy:Pf_core.Policy.Postdoms in
  Alcotest.(check bool)
    (Printf.sprintf "postdoms cuts frontend stalls (%d -> %d)"
       b.Metrics.stall_frontend p.Metrics.stall_frontend)
    true
    (p.Metrics.stall_frontend < b.Metrics.stall_frontend)

let test_split_spawning () =
  Unix.putenv "PF_CHECK" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "PF_CHECK" "")
  @@ fun () ->
  let prep = prepare_hammock ~iters:500 ~window:20_000 () in
  let std = Run.simulate prep ~policy:Pf_core.Policy.Postdoms in
  let split =
    Run.simulate
      ~config:{ Config.polyflow with Config.split_spawning = true }
      prep ~policy:Pf_core.Policy.Postdoms
  in
  Alcotest.(check int) "retires the window"
    (Pf_trace.Tracer.length prep.Run.trace)
    split.Metrics.instructions;
  Alcotest.(check bool)
    (Printf.sprintf "split spawns at least as much (%d vs %d)"
       split.Metrics.tasks_spawned std.Metrics.tasks_spawned)
    true
    (split.Metrics.tasks_spawned >= std.Metrics.tasks_spawned)

let test_prepare_rejects_empty_window () =
  (* a program that halts during fast-forward leaves nothing to
     simulate, with or without a trace store; the store's miss path
     publishes nothing for it *)
  let program, setup = hammock_workload ~iters:1 in
  let store =
    Pf_trace.Trace_store.create ~dir:(Filename.temp_dir "pf_empty_window" "") ()
  in
  List.iter
    (fun (what, store) ->
      match
        Run.prepare ?store program ~setup ~fast_forward:1_000_000 ~window:100
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: expected rejection" what)
    [ ("no store", None); ("trace store", Some store) ];
  let s = Pf_trace.Trace_store.stats store in
  Alcotest.(check int) "nothing stored" 0 s.Pf_trace.Trace_store.stores;
  Alcotest.(check int) "no entries" 0 s.Pf_trace.Trace_store.entries

let test_metrics_helpers () =
  let m =
    { Metrics.instructions = 1000; cycles = 500; branch_mispredicts = 0;
      indirect_mispredicts = 0; return_mispredicts = 0; spawns = [];
      squashes = 0; squashed_instrs = 0; diverted = 0; tasks_spawned = 0;
      max_live_tasks = 1; l1i_misses = 0; l1d_misses = 0; l2_misses = 0;
      stall_frontend = 0; stall_divert = 0; stall_sched = 0; stall_exec = 0 }
  in
  Alcotest.(check (float 0.001)) "ipc" 2.0 (Metrics.ipc m);
  let b = { m with Metrics.cycles = 1000 } in
  Alcotest.(check (float 0.001)) "speedup" 100.0 (Metrics.speedup_pct ~baseline:b m)

let test_config_values_match_figure8 () =
  let c = Config.polyflow in
  Alcotest.(check int) "width" 8 c.Config.width;
  Alcotest.(check int) "rob" 512 c.Config.rob_entries;
  Alcotest.(check int) "scheduler" 64 c.Config.scheduler_entries;
  Alcotest.(check int) "fus" 8 c.Config.fus;
  Alcotest.(check int) "divert" 128 c.Config.divert_entries;
  Alcotest.(check int) "tasks" 8 c.Config.max_tasks;
  Alcotest.(check int) "mispredict penalty" 8 c.Config.min_mispredict_penalty;
  Alcotest.(check int) "superscalar tasks" 1 Config.superscalar.Config.max_tasks

let suite =
  [ ( "uarch.engine",
      [ case "baseline completes with sane IPC" test_baseline_completes;
        case "baseline sees mispredicts" test_baseline_sees_mispredicts;
        case "deterministic" test_determinism;
        case "polyflow spawns tasks" test_polyflow_spawns_tasks;
        case "hammock spawning beats superscalar" test_hammock_spawning_beats_superscalar;
        case "no-spawn polyflow = superscalar" test_no_spawn_on_polyflow_config_matches_superscalar_order;
        case "procFT spawning" test_procft_spawning_runs;
        case "memory violations recover" test_memory_violations_squash_and_recover;
        case "rec_pred runs" test_rec_pred_policy_runs;
        case "rec_pred close to postdoms" test_rec_pred_close_to_postdoms;
        case "max tasks respected" test_max_tasks_respected ] );
    ( "uarch.ablations",
      [ case "task scaling monotone" test_task_scaling_monotone;
        case "self-check mode" test_self_check_mode;
        case "variants complete" test_ablation_variants_complete;
        case "dmt policy" test_dmt_policy;
        case "shared history hurts" test_shared_history_hurts_multitask_prediction;
        Prop.to_alcotest prop_random_configs_complete ] );
    ( "uarch.metrics",
      [ case "split spawning" test_split_spawning;
        case "empty window rejected" test_prepare_rejects_empty_window;
        case "stall attribution" test_stall_attribution;
        case "helpers" test_metrics_helpers;
        case "figure 8 config" test_config_values_match_figure8 ] ) ]
