(* Engine microbenchmark: per-phase timings of the simulation pipeline,
   tracked as a schema-versioned BENCH_engine.json artifact.

   The sweep's cost per workload splits into
     prepare  — architectural execution, window capture, dependence
                analysis, SoA flattening, occurrence index (paid once
                per (workload, window) pair and shared by every policy);
     simulate — the engine cycle loop (paid once per policy).
   This harness measures both sides separately, re-times the flattening
   pass in isolation (the per-cell work that sharing the immutable
   Flat_trace removes from an N-policy sweep), and optionally times the
   full workload×policy grid through the parallel sweep runner. The
   derived `flatten_sharing_speedup` is shared-flattening wall over
   flatten-per-policy wall for the same phase runs; `grid.wall_s` is the
   number to track across PRs for end-to-end sweep speed.

   `--smoke` runs a seconds-scale self-check (tiny windows, two
   workloads, parity + JSON round-trip assertions) and is wired into
   `dune runtest` so this harness cannot bitrot. *)

module B = Pf_bench_support.Bench_support
module Sweep = Pf_report.Sweep
module Json = Pf_report.Json
open Pf_uarch

(* ---- command line ---- *)

let jobs = ref (min 8 (Domain.recommended_domain_count ()))
let json_out = ref "BENCH_engine.json"
let smoke = ref false
let no_grid = ref false
let batch_only = ref false
let prepare_only = ref false
let window_override =
  ref (Option.map int_of_string (Sys.getenv_opt "PF_BENCH_WINDOW"))

let () =
  Arg.parse
    [ ("--jobs", Arg.Set_int jobs, "N  worker domains for the grid sweep (default: cores, max 8)");
      ("--json", Arg.Set_string json_out, "FILE  output artifact (default: BENCH_engine.json)");
      ("--window", Arg.Int (fun w -> window_override := Some w), "N  override every workload window");
      ("--no-grid", Arg.Set no_grid, "  skip the full-grid sweep timing");
      ("--batch-only", Arg.Set batch_only, "  print only the batched-vs-sequential section, no artifact");
      ("--prepare-only", Arg.Set prepare_only, "  print only the cold-vs-warm trace-store prepare section, no artifact");
      ("--smoke", Arg.Set smoke, "  fast self-checking run (used by dune runtest)") ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench/engine_bench.exe [--jobs N] [--json FILE] [--window N] [--no-grid] [--batch-only] [--prepare-only] [--smoke]"

(* one policy per policy class; the grid section covers the rest *)
let phase_policies =
  [ Pf_core.Policy.No_spawn;
    Pf_core.Policy.Postdoms;
    Pf_core.Policy.Rec_pred;
    Pf_core.Policy.Dmt ]

type sim_row = {
  label : string;
  sim_s : float;
  metrics : Metrics.t;
  allocated_words : float; (* words the simulation freshly allocated *)
}

type workload_row = {
  workload : string;
  window : int;
  instructions : int;
  prepare_s : float;
  flatten_s : float;
  sims : sim_row list;
  (* the adaptive policy (memory tracker + safety filter) timed apart
     from [sims]: its throughput is recorded in the artifact but kept
     out of the gated engine_minstr_per_s aggregate, so the CI perf
     gate's baseline keeps its meaning across the subsystem's arrival *)
  adaptive_sim : sim_row;
  (* the doacross policy (back-edge spawns + distance-aware sync), also
     recorded ungated, mirroring adaptive *)
  doacross_sim : sim_row;
}

let measure_workload ~window_override (wl : Pf_workloads.Workload.t) =
  let window =
    match window_override with
    | Some w -> w
    | None -> wl.Pf_workloads.Workload.window
  in
  let prep, prepare_s =
    B.time (fun () ->
        Run.prepare wl.Pf_workloads.Workload.program
          ~setup:wl.Pf_workloads.Workload.setup
          ~fast_forward:wl.Pf_workloads.Workload.fast_forward ~window)
  in
  (* re-time the flattening pass alone: this is what `Engine.simulate`
     used to redo for every policy before the flat trace was hoisted
     into `Run.prepare` *)
  let _, flatten_s =
    B.time (fun () -> Pf_trace.Flat_trace.of_trace prep.Run.trace)
  in
  let measure_sim policy =
    let (metrics, sim_s), allocated_words =
      B.alloc_words (fun () -> B.time (fun () -> Run.simulate prep ~policy))
    in
    { label = Pf_core.Policy.name policy; sim_s; metrics; allocated_words }
  in
  let sims = List.map measure_sim phase_policies in
  let adaptive_sim = measure_sim Pf_core.Policy.Adaptive in
  let doacross_sim = measure_sim Pf_core.Policy.Doacross in
  { workload = wl.Pf_workloads.Workload.name;
    window;
    instructions = Pf_trace.Tracer.length prep.Run.trace;
    prepare_s;
    flatten_s;
    sims;
    adaptive_sim;
    doacross_sim }

(* ---- persistent-store preparation: cold vs warm ----

   Cold preparation pays the whole O(fast_forward + window) pipeline —
   machine creation, setup, prefix interpretation, window capture,
   dependence pass — plus the trace-store publish. Warm preparation
   replays the same window from the store: O(read + decode + window),
   the repeat-sweep / daemon-steady-state pattern the store exists for.
   Each side is the best of [prepare_rounds] samples so the gated ratio
   tracks the pipeline, not scheduler noise: every cold sample runs
   against a fresh store directory (guaranteed miss), every warm sample
   re-prepares through the same live store (guaranteed hit). *)

let prepare_rounds = 3

type prepare_row = {
  p_workload : string;
  p_window : int;
  p_instructions : int;
  p_cold_s : float;
  p_warm_s : float;
}

let prepare_speedup p = p.p_cold_s /. p.p_warm_s

let measure_prepare ~window_override (wl : Pf_workloads.Workload.t) =
  let window =
    match window_override with
    | Some w -> w
    | None -> wl.Pf_workloads.Workload.window
  in
  let prepare store =
    Run.prepare ?store wl.Pf_workloads.Workload.program
      ~setup:wl.Pf_workloads.Workload.setup
      ~fast_forward:wl.Pf_workloads.Workload.fast_forward ~window
  in
  let best = List.fold_left min infinity in
  (* one unmeasured round to warm the allocator, as measure_batch does *)
  ignore (prepare None);
  let dirs =
    List.init prepare_rounds (fun _ ->
        B.temp_dir ~base:(Filename.get_temp_dir_name ()) "pf_bench_tstore")
  in
  let colds =
    List.map
      (fun dir ->
        let store = Pf_trace.Trace_store.create ~dir () in
        snd (B.time (fun () -> ignore (prepare (Some store)))))
      dirs
  in
  (* warm hits go through the store of the last cold round *)
  let warm_store = Pf_trace.Trace_store.create ~dir:(List.nth dirs (prepare_rounds - 1)) () in
  let prep = ref (prepare (Some warm_store)) in
  let warms =
    List.init prepare_rounds (fun _ ->
        snd (B.time (fun () -> prep := prepare (Some warm_store))))
  in
  let instructions = Pf_trace.Tracer.length !prep.Run.trace in
  List.iter B.rm_rf dirs;
  { p_workload = wl.Pf_workloads.Workload.name;
    p_window = window;
    p_instructions = instructions;
    p_cold_s = best colds;
    p_warm_s = best warms }

let print_prepare_row p =
  Printf.printf
    "  %-10s window %7d  cold %7.2f ms  warm %7.2f ms  speedup %5.1fx\n%!"
    p.p_workload p.p_window (1000. *. p.p_cold_s) (1000. *. p.p_warm_s)
    (prepare_speedup p)

let prepare_row_to_json p =
  Json.Obj
    [ ("workload", Json.String p.p_workload);
      ("window", Json.Int p.p_window);
      ("instructions", Json.Int p.p_instructions);
      ("prepare_cold_s", Json.Float p.p_cold_s);
      ("prepare_warm_s", Json.Float p.p_warm_s);
      ("warm_prepare_speedup", Json.Float (prepare_speedup p)) ]

(* aggregate ratio: total cold wall over total warm wall *)
let prepare_totals prep_rows =
  let sum f = List.fold_left (fun a p -> a +. f p) 0. prep_rows in
  let cold = sum (fun p -> p.p_cold_s) and warm = sum (fun p -> p.p_warm_s) in
  (cold, warm, if warm = 0. then 0. else cold /. warm)

(* ---- batched vs sequential cold sweeps ----

   A batch answers N same-window policy runs with one prepare and N
   simulations of the shared prepared window (Run.simulate_batch); a
   cold sequential sweep of the same N runs pays N fresh prepares as
   well. Both sides are measured: `seq_cold_s` for size B
   is the sum of B independently-timed (fresh prepare + solo simulate)
   pairs, `batched_cold_s` is one timed (prepare + simulate_batch of B
   members). Policies cycle through the phase classes so every batch
   is mixed-policy. *)

let batch_sizes = [ 1; 2; 4; 8 ]
let max_batch_size = 8
let batch_policy i = List.nth phase_policies (i mod List.length phase_policies)

type batch_size_row = {
  size : int;
  seq_cold_s : float;
  batched_cold_s : float;
}

type batch_row = {
  b_workload : string;
  b_window : int;
  b_instructions : int;
  b_sizes : batch_size_row list;
}

let batch_speedup (r : batch_size_row) = r.seq_cold_s /. r.batched_cold_s

(* aggregate Minstr/s of the batch: B runs of n instructions each over
   the one batched wall *)
let batch_minstr_per_s (b : batch_row) (r : batch_size_row) =
  float_of_int (r.size * b.b_instructions) /. r.batched_cold_s /. 1e6

let measure_batch ~window_override (wl : Pf_workloads.Workload.t) =
  let window =
    match window_override with
    | Some w -> w
    | None -> wl.Pf_workloads.Workload.window
  in
  let prepare () =
    Run.prepare wl.Pf_workloads.Workload.program
      ~setup:wl.Pf_workloads.Workload.setup
      ~fast_forward:wl.Pf_workloads.Workload.fast_forward ~window
  in
  (* one unmeasured round first: both sides should see warm allocator
     and scratch-pool state, or the side measured first eats the
     process warm-up and skews tiny windows *)
  (let prep = prepare () in
   ignore (Run.simulate prep ~policy:(batch_policy 0)));
  let solo_cold =
    Array.init max_batch_size (fun i ->
        let _, s =
          B.time (fun () ->
              let prep = prepare () in
              ignore (Run.simulate prep ~policy:(batch_policy i)))
        in
        s)
  in
  let instructions = ref 0 in
  let rows =
    List.map
      (fun size ->
        let prep, batched_cold_s =
          B.time (fun () ->
              let prep = prepare () in
              ignore
                (Run.simulate_batch prep
                   (List.init size (fun i -> Run.batch_run (batch_policy i))));
              prep)
        in
        instructions := Pf_trace.Tracer.length prep.Run.trace;
        let seq_cold_s =
          Array.fold_left ( +. ) 0. (Array.sub solo_cold 0 size)
        in
        { size; seq_cold_s; batched_cold_s })
      batch_sizes
  in
  { b_workload = wl.Pf_workloads.Workload.name;
    b_window = window;
    b_instructions = !instructions;
    b_sizes = rows }

(* the full grid prepares 12 windows; the batch section pays ~12 fresh
   prepares per workload, so full mode measures a 3-workload subset *)
let batch_workloads = [ "gzip"; "mcf"; "twolf" ]

let print_batch_row b =
  List.iter
    (fun r ->
      Printf.printf
        "  %-10s window %7d  B=%d  seq-cold %6.3f s  batched %6.3f s  \
         speedup %5.2fx  (%.2f Minstr/s)\n%!"
        b.b_workload b.b_window r.size r.seq_cold_s r.batched_cold_s
        (batch_speedup r) (batch_minstr_per_s b r))
    b.b_sizes

(* ---- grid: the full workload×policy sweep, timed end to end ---- *)

let grid_specs ~window_override () =
  let policies =
    let all =
      Pf_core.Policy.(
        (No_spawn :: figure9_policies) @ figure10_policies @ figure11_policies
        @ figure12_policies @ [ Dmt; Adaptive ])
    in
    let seen = Hashtbl.create 16 in
    List.filter
      (fun p ->
        let name = Pf_core.Policy.name p in
        if Hashtbl.mem seen name then false
        else begin
          Hashtbl.add seen name ();
          true
        end)
      all
  in
  List.concat_map
    (fun w -> List.map (fun p -> Sweep.spec ?window:window_override w p) policies)
    Pf_workloads.Suite.spec_names

(* ---- JSON document ---- *)

let sim_to_json (s : sim_row) =
  Json.Obj
    [ ("label", Json.String s.label);
      ("simulate_s", Json.Float s.sim_s);
      ("cycles", Json.Int s.metrics.Metrics.cycles);
      ("ipc", Json.Float (Metrics.ipc s.metrics));
      ("allocated_words", Json.Float s.allocated_words) ]

let simulate_total w = List.fold_left (fun a s -> a +. s.sim_s) 0. w.sims
let allocated_total w = List.fold_left (fun a s -> a +. s.allocated_words) 0. w.sims

(* what an N-policy sweep of this window pays with flattening hoisted
   into prepare vs re-flattened per policy (the pre-rewrite pipeline) *)
let shared_wall w = w.flatten_s +. simulate_total w
let unshared_wall w =
  (float_of_int (List.length w.sims) *. w.flatten_s) +. simulate_total w

let workload_to_json w =
  Json.Obj
    [ ("workload", Json.String w.workload);
      ("window", Json.Int w.window);
      ("instructions", Json.Int w.instructions);
      ("prepare_s", Json.Float w.prepare_s);
      ("flatten_s", Json.Float w.flatten_s);
      ("simulate_s", Json.Float (simulate_total w));
      ("shared_wall_s", Json.Float (shared_wall w));
      ("unshared_wall_s", Json.Float (unshared_wall w));
      ("flatten_sharing_speedup", Json.Float (unshared_wall w /. shared_wall w));
      ("simulate", Json.List (List.map sim_to_json w.sims));
      ("adaptive", sim_to_json w.adaptive_sim);
      ("doacross", sim_to_json w.doacross_sim) ]

let batch_row_to_json b =
  Json.Obj
    [ ("workload", Json.String b.b_workload);
      ("window", Json.Int b.b_window);
      ("instructions", Json.Int b.b_instructions);
      ( "sizes",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [ ("size", Json.Int r.size);
                   ("seq_cold_s", Json.Float r.seq_cold_s);
                   ("batched_cold_s", Json.Float r.batched_cold_s);
                   ("speedup", Json.Float (batch_speedup r));
                   ( "batched_minstr_per_s",
                     Json.Float (batch_minstr_per_s b r) ) ])
             b.b_sizes) ) ]

(* aggregate across batch rows at one size: (Σ B·n) / Σ batched wall,
   and Σ seq wall / Σ batched wall *)
let batch_totals batched ~size =
  let pick b = List.find_opt (fun r -> r.size = size) b.b_sizes in
  let fold f =
    List.fold_left
      (fun a b -> match pick b with Some r -> a +. f b r | None -> a)
      0. batched
  in
  let instrs = fold (fun b r -> float_of_int (r.size * b.b_instructions)) in
  let seq = fold (fun _ r -> r.seq_cold_s) in
  let wall = fold (fun _ r -> r.batched_cold_s) in
  if wall = 0. then (0., 0.) else (instrs /. wall /. 1e6, seq /. wall)

let document ~tool ~wall_s ~rows ~prep_rows ~batched ~grid =
  let sum f = List.fold_left (fun a w -> a +. f w) 0. rows in
  let prepare_cold_s, prepare_warm_s, warm_prepare_speedup =
    prepare_totals prep_rows
  in
  let instrs =
    List.fold_left
      (fun a w -> a + (w.instructions * List.length w.sims))
      0 rows
  in
  let sim_s = sum simulate_total in
  let batched_minstr, _ = batch_totals batched ~size:max_batch_size in
  let _, speedup_4 = batch_totals batched ~size:4 in
  let totals =
    Json.Obj
      [ ("prepare_s", Json.Float (sum (fun w -> w.prepare_s)));
        ("flatten_s", Json.Float (sum (fun w -> w.flatten_s)));
        ("simulate_s", Json.Float sim_s);
        ("shared_wall_s", Json.Float (sum shared_wall));
        ("unshared_wall_s", Json.Float (sum unshared_wall));
        ( "flatten_sharing_speedup",
          Json.Float (sum unshared_wall /. sum shared_wall) );
        ( "engine_minstr_per_s",
          Json.Float (float_of_int instrs /. sim_s /. 1e6) );
        (* recorded but not gated: the adaptive policy's throughput,
           tracked so tracker-cost regressions are visible in history
           without widening the perf gate *)
        ( "adaptive_minstr_per_s",
          Json.Float
            (let instrs =
               List.fold_left (fun a w -> a + w.instructions) 0 rows
             in
             let s = sum (fun w -> w.adaptive_sim.sim_s) in
             float_of_int instrs /. s /. 1e6) );
        (* likewise recorded, not gated: the doacross policy's
           throughput (back-edge spawning + the tracker's distance sync) *)
        ( "doacross_minstr_per_s",
          Json.Float
            (let instrs =
               List.fold_left (fun a w -> a + w.instructions) 0 rows
             in
             let s = sum (fun w -> w.doacross_sim.sim_s) in
             float_of_int instrs /. s /. 1e6) );
        ("batched_minstr_per_s", Json.Float batched_minstr);
        ("batch_speedup_4", Json.Float speedup_4);
        (* trace-store preparation: cold pays the full O(prefix+window)
           pipeline, warm replays the window from the persistent store;
           the ratio is gated in CI (perf-smoke) *)
        ("prepare_cold_s", Json.Float prepare_cold_s);
        ("prepare_warm_s", Json.Float prepare_warm_s);
        ("warm_prepare_speedup", Json.Float warm_prepare_speedup);
        ( "allocated_words_per_instr",
          Json.Float (sum allocated_total /. float_of_int instrs) ) ]
  in
  let manifest = Pf_report.Manifest.create ~tool ~jobs:!jobs ~wall_s in
  Json.Obj
    [ ("schema_version", Json.Int Pf_report.Manifest.schema_version);
      ("bench", Json.String "engine");
      ("manifest", Pf_report.Manifest.to_json manifest);
      ("phase_policies",
       Json.List
         (List.map
            (fun p -> Json.String (Pf_core.Policy.name p))
            phase_policies));
      ("workloads", Json.List (List.map workload_to_json rows));
      ("prepare", Json.List (List.map prepare_row_to_json prep_rows));
      ("batched", Json.List (List.map batch_row_to_json batched));
      ( "grid",
        match grid with
        | None -> Json.Null
        | Some (runs, wall) ->
            Json.Obj
              [ ("jobs", Json.Int !jobs);
                ("runs", Json.Int runs);
                ("wall_s", Json.Float wall);
                ("runs_per_s", Json.Float (float_of_int runs /. wall)) ] );
      ("totals", totals) ]

(* Perf trajectory across commits: every write appends this summary to the
   `history` carried over from the artifact it replaces. *)
let history_entry doc =
  let sub a b = Json.member b (Json.member a doc) in
  Json.Obj
    [ ("created_unix", sub "manifest" "created_unix");
      ("git", sub "manifest" "git");
      ("tool", sub "manifest" "tool");
      ("timing_version", Json.String Engine.timing_version);
      ("engine_minstr_per_s", sub "totals" "engine_minstr_per_s");
      ("adaptive_minstr_per_s", sub "totals" "adaptive_minstr_per_s");
      ("doacross_minstr_per_s", sub "totals" "doacross_minstr_per_s");
      ("batched_minstr_per_s", sub "totals" "batched_minstr_per_s");
      ("batch_speedup_4", sub "totals" "batch_speedup_4");
      ("warm_prepare_speedup", sub "totals" "warm_prepare_speedup");
      ("allocated_words_per_instr", sub "totals" "allocated_words_per_instr") ]

let save path doc =
  B.save path (B.with_history path ~entries:[ history_entry doc ] doc)

(* ---- smoke: fast self-check wired into dune runtest ---- *)

let run_smoke () =
  let failures = ref [] in
  let check name ok =
    Printf.printf "engine-bench %s: %s\n" name (if ok then "ok" else "FAIL");
    if not ok then failures := name :: !failures
  in
  let rows =
    List.map
      (fun name ->
        measure_workload ~window_override:(Some 2_000)
          (Option.get (Pf_workloads.Suite.find name)))
      [ "gzip"; "mcf" ]
  in
  check "phase timings present"
    (List.for_all
       (fun w ->
         w.prepare_s >= 0. && w.flatten_s >= 0.
         && List.length w.sims = List.length phase_policies)
       rows);
  check "windows captured" (List.for_all (fun w -> w.instructions = 2_000) rows);
  (* the adaptive policy (tracker + safety filter) must complete its
     window; its throughput lands in the artifact ungated *)
  check "adaptive policy simulated"
    (List.for_all
       (fun w -> w.adaptive_sim.metrics.Metrics.instructions = w.instructions)
       rows);
  check "doacross policy simulated"
    (List.for_all
       (fun w -> w.doacross_sim.metrics.Metrics.instructions = w.instructions)
       rows);
  (* parity: repeating a simulation against the same shared prepared
     window must be byte-identical (the engine keeps no cross-run state) *)
  let wl = Option.get (Pf_workloads.Suite.find "gzip") in
  let a = measure_workload ~window_override:(Some 2_000) wl in
  let fingerprint w =
    String.concat ";"
      (List.map
         (fun s ->
           Json.to_string (Pf_report.Codec.metrics_to_json s.metrics))
         w.sims)
  in
  check "deterministic re-simulation"
    (fingerprint a = fingerprint (List.hd rows));
  (* a same-window batch: same members, same window — the batch must
     reproduce the solo runs bit for bit *)
  let batch_wl = Option.get (Pf_workloads.Suite.find "gzip") in
  let batch_prep =
    Run.prepare batch_wl.Pf_workloads.Workload.program
      ~setup:batch_wl.Pf_workloads.Workload.setup
      ~fast_forward:batch_wl.Pf_workloads.Workload.fast_forward ~window:4_000
  in
  let batch_members = List.init max_batch_size batch_policy in
  let batch_metrics =
    Run.simulate_batch batch_prep (List.map Run.batch_run batch_members)
  in
  let metrics_bytes m = Json.to_string (Pf_report.Codec.metrics_to_json m) in
  check "batched parity"
    (List.for_all2
       (fun policy m ->
         metrics_bytes m
         = metrics_bytes (Run.simulate batch_prep ~policy))
       batch_members batch_metrics);
  (* the cold-sweep speedup of sharing one prepared window: B=4 runs
     from one prepare vs 4 fresh prepare+simulate pairs *)
  let batch_gzip = measure_batch ~window_override:(Some 4_000) batch_wl in
  let size4 = List.find (fun r -> r.size = 4) batch_gzip.b_sizes in
  check "batched cold speedup >= 2x at B=4" (batch_speedup size4 >= 2.0);
  (* the trace store's claim: a warm preparation (store hit, which
     skips machine set-up, fast-forward, capture and the dependence
     pass) must beat a cold one by 3x or more even on the smoke grid,
     where the window is tiny and the prefix short *)
  let prep_rows =
    List.map
      (fun name ->
        measure_prepare ~window_override:(Some 2_000)
          (Option.get (Pf_workloads.Suite.find name)))
      [ "gzip"; "mcf" ]
  in
  let _, _, warm_speedup = prepare_totals prep_rows in
  check "warm prepare >= 3x cold via the trace store" (warm_speedup >= 3.0);
  (* the artifact round-trips through the JSON printer/parser *)
  let doc =
    document ~tool:"engine_bench --smoke" ~wall_s:0. ~rows ~prep_rows
      ~batched:[ batch_gzip ] ~grid:None
  in
  let reparsed = Json.of_string (Json.to_string_pretty doc) in
  check "artifact round-trip"
    (Json.to_int (Json.member "schema_version" reparsed)
     = Pf_report.Manifest.schema_version
    && List.length (Json.to_list (Json.member "workloads" reparsed)) = 2
    && List.length (Json.to_list (Json.member "batched" reparsed)) = 1
    && Json.member_opt "adaptive_minstr_per_s" (Json.member "totals" reparsed)
       <> None
    && Json.member_opt "doacross_minstr_per_s" (Json.member "totals" reparsed)
       <> None
    && List.length (Json.to_list (Json.member "prepare" reparsed)) = 2
    && Json.member_opt "warm_prepare_speedup" (Json.member "totals" reparsed)
       <> None);
  (* the steady-state loop must stay allocation-free.  Measured over a
     window long enough to amortize per-simulate setup (predictor
     tables, the O(n) prepared arrays): the budget below leaves ~10
     words/instr of headroom over the tracked level, while a per-cycle
     list or closure sneaking back into the engine costs tens of words
     per instruction and trips it immediately. *)
  let gc_row =
    measure_workload ~window_override:(Some 20_000)
      (Option.get (Pf_workloads.Suite.find "gzip"))
  in
  check "near-zero allocation per instr"
    (allocated_total gc_row
     /. float_of_int (gc_row.instructions * List.length gc_row.sims)
     < 25.);
  (* CI consumes the smoke artifact (perf-smoke job), so write it even
     in smoke mode, history included *)
  save !json_out doc;
  Printf.printf "engine-bench smoke: %s\n"
    (if !failures = [] then "PASS" else "FAIL");
  exit (if !failures = [] then 0 else 1)

(* ---- full run ---- *)

let run_full () =
  let t_start = Unix.gettimeofday () in
  Printf.printf "Engine microbenchmark: prepare vs simulate per workload\n";
  let rows =
    List.map
      (fun name ->
        let wl = Option.get (Pf_workloads.Suite.find name) in
        let row = measure_workload ~window_override:!window_override wl in
        Printf.printf
          "  %-10s window %7d  prepare %6.3f s (flatten %6.4f s)  simulate %6.3f s over %d policies\n%!"
          row.workload row.window row.prepare_s row.flatten_s
          (simulate_total row) (List.length row.sims);
        row)
      (* the phase grid stays on the 12 SPEC-shaped kernels so
         engine_minstr_per_s keeps its meaning against the recorded
         baseline; the loop-nest family has its own figure *)
      Pf_workloads.Suite.spec_names
  in
  let prep_rows =
    Printf.printf
      "Trace-store preparation, cold (fresh store) vs warm (store hit):\n%!";
    List.map
      (fun name ->
        let p =
          measure_prepare ~window_override:!window_override
            (Option.get (Pf_workloads.Suite.find name))
        in
        print_prepare_row p;
        p)
      Pf_workloads.Suite.spec_names
  in
  let batched =
    Printf.printf
      "Batched vs sequential cold sweeps (%s; policies cycle %s):\n%!"
      (String.concat ", " batch_workloads)
      (String.concat "/" (List.map Pf_core.Policy.name phase_policies));
    List.map
      (fun name ->
        let b =
          measure_batch ~window_override:!window_override
            (Option.get (Pf_workloads.Suite.find name))
        in
        print_batch_row b;
        b)
      batch_workloads
  in
  let grid =
    if !no_grid then None
    else begin
      let specs = grid_specs ~window_override:!window_override () in
      Printf.printf "Grid sweep: %d runs, %d jobs...\n%!" (List.length specs)
        !jobs;
      let (runs, _), wall =
        B.time (fun () -> Sweep.execute ~jobs:!jobs specs)
      in
      Printf.printf "  grid wall %.1f s (%.1f runs/s)\n%!" wall
        (float_of_int (List.length runs) /. wall);
      Some (List.length runs, wall)
    end
  in
  let sum f = List.fold_left (fun a w -> a +. f w) 0. rows in
  let batched_minstr, _ = batch_totals batched ~size:max_batch_size in
  let _, speedup_4 = batch_totals batched ~size:4 in
  let _, _, warm_speedup = prepare_totals prep_rows in
  Printf.printf
    "Totals: prepare %.2f s, simulate %.2f s; flatten-sharing speedup %.2fx \
     on the phase grid; batched %.2f Minstr/s at B=%d, cold speedup %.2fx at \
     B=4; warm prepare %.1fx cold\n"
    (sum (fun w -> w.prepare_s))
    (sum simulate_total)
    (sum unshared_wall /. sum shared_wall)
    batched_minstr max_batch_size speedup_4 warm_speedup;
  let doc =
    document
      ~tool:(String.concat " " (Array.to_list Sys.argv))
      ~wall_s:(Unix.gettimeofday () -. t_start)
      ~rows ~prep_rows ~batched ~grid
  in
  save !json_out doc;
  Printf.printf "Wrote %s (schema %d)\n" !json_out
    Pf_report.Manifest.schema_version

(* ---- batch-only: the batched section alone, no artifact ---- *)

let run_batch_only () =
  Printf.printf
    "Batched vs sequential cold sweeps (policies cycle %s):\n%!"
    (String.concat "/" (List.map Pf_core.Policy.name phase_policies));
  let batched =
    List.map
      (fun name ->
        let b =
          measure_batch ~window_override:!window_override
            (Option.get (Pf_workloads.Suite.find name))
        in
        print_batch_row b;
        b)
      batch_workloads
  in
  let batched_minstr, _ = batch_totals batched ~size:max_batch_size in
  let _, speedup_4 = batch_totals batched ~size:4 in
  Printf.printf
    "Aggregate: %.2f Minstr/s at B=%d; cold speedup %.2fx at B=4\n"
    batched_minstr max_batch_size speedup_4

(* ---- prepare-only: the cold-vs-warm store section alone ---- *)

let run_prepare_only () =
  Printf.printf
    "Trace-store preparation, cold (fresh store) vs warm (store hit):\n%!";
  let prep_rows =
    List.map
      (fun name ->
        let p =
          measure_prepare ~window_override:!window_override
            (Option.get (Pf_workloads.Suite.find name))
        in
        print_prepare_row p;
        p)
      Pf_workloads.Suite.spec_names
  in
  let cold, warm, speedup = prepare_totals prep_rows in
  Printf.printf "Aggregate: cold %.1f ms, warm %.1f ms, speedup %.1fx\n"
    (1000. *. cold) (1000. *. warm) speedup

let () =
  if !smoke then run_smoke ()
  else if !batch_only then run_batch_only ()
  else if !prepare_only then run_prepare_only ()
  else run_full ()
