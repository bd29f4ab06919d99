(* Figure harness: regenerates every table and figure of the paper's
   evaluation (Section 4). It reports its own wall time and nothing
   finer; the repository's benchmark is pfbench (pfbench/README.md).

   The simulations are one Pf_report.Sweep spec list, the paper grid of
   Pf_report.Figures.specs (or, under --loopnest, its loop-nest family),
   fanned out over a Domain worker pool (--jobs N). The sweep is
   deterministic in the job count; --json FILE saves it as a
   schema-versioned report document (docs/REPORT_SCHEMA.md).

   Every table computed from that document prints through
   Pf_report.Figures.print, which `polyflow_sim report FILE` also calls,
   so the report re-renders them byte for byte: Figures 9-12, the
   related-work comparison, task scaling, stall sources, design
   ablations, split spawning, window sensitivity and the two loop-nest
   tables. Four sections read more than the document and stay here:
   Figures 5 and 8 describe the build (the classified programs and the
   pipeline configuration) and print before the document's tables; the
   limit study and the CPI stacks re-read prepared windows and print
   after them.

   Set PF_BENCH_WINDOW to override the per-workload window (useful for a
   quick smoke run; it drops the window-sensitivity cells), or use
   --smoke for the self-checking loop-nest sweep. *)

open Pf_uarch
module Sweep = Pf_report.Sweep
module Table = Pf_report.Table
module Figures = Pf_report.Figures

let window_override =
  Option.map int_of_string (Sys.getenv_opt "PF_BENCH_WINDOW")

(* ---- command line ---- *)

let jobs = ref (min 8 (Domain.recommended_domain_count ()))
let json_out = ref ""
let smoke = ref false
let loopnest = ref false
let no_cache = ref false
let cache_dir = ref "_cache"
let no_trace_store = ref false
let trace_store_dir = ref "_tstore"
let verbose = ref false

let () =
  Arg.parse
    [ ("--jobs", Arg.Set_int jobs, "N  worker domains for the sweep (default: cores, max 8)");
      ("--json", Arg.Set_string json_out, "FILE  save the sweep as a report document");
      ("--smoke", Arg.Set smoke,
       "  the loop-nest sweep at smoke scale, asserting the DOACROSS trend");
      ("--loopnest", Arg.Set loopnest,
       "  sweep the loop-nest dependence-distance family instead of the paper \
        grid");
      ("--no-cache", Arg.Set no_cache,
       "  bypass the sweep result cache and resimulate everything");
      ("--cache", Arg.Set_string cache_dir,
       "DIR  sweep result cache directory (default: _cache)");
      ("--no-trace-store", Arg.Set no_trace_store,
       "  bypass the persistent trace store and re-prepare every window");
      ("--trace-store", Arg.Set_string trace_store_dir,
       "DIR  persistent compiled-trace store directory (default: _tstore)");
      ("-v", Arg.Set verbose,
       "  verbose: print the sweep's cache/batch execution summary") ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench/main.exe [--jobs N] [--json FILE] [--smoke] [--loopnest] [--no-cache] [--cache DIR] [--no-trace-store] [--trace-store DIR] [-v]"

(* the run the sweep made for [w] under [label] *)
let run_of doc w label =
  match Table.find_run doc ~workload:w ~label with
  | Some r -> r
  | None -> failwith (Printf.sprintf "missing sweep run %s/%s" w label)

(* The prepared window a run was measured on, for the sections that
   re-read windows (limit study, CPI stacks): prepared on first request
   through the trace store, since the sweep drops each window after its
   last batch, and kept in its slot for the next section that asks. *)
let window_of ?trace_store () =
  let slots = Hashtbl.create 16 in
  fun (r : Sweep.run) ->
    let key = (r.Sweep.workload, r.Sweep.window) in
    if not (Hashtbl.mem slots key) then
      Hashtbl.add slots key
        (Sweep.window_slot ~window:r.Sweep.window
           (Option.get (Pf_workloads.Suite.find r.Sweep.workload)));
    fst (Sweep.acquire ?trace_store (Hashtbl.find slots key))

let hr () = print_endline (String.make 98 '-')

let section title =
  print_newline ();
  print_endline (String.make 98 '=');
  print_endline title;
  print_endline (String.make 98 '=')

(* ------------------------------------------------------------------ *)

let figure5 () =
  section
    "Figure 5: Static distribution of control-equivalent task types (percent \
     of static spawns)";
  Printf.printf "%-10s %8s %8s %9s %7s %8s\n" "benchmark" "loopFT" "procFT"
    "hammocks" "other" "total";
  hr ();
  List.iter
    (fun (wl : Pf_workloads.Workload.t) ->
      let spawns = Pf_core.Classify.spawn_points wl.Pf_workloads.Workload.program in
      let stats = Pf_core.Static_stats.of_spawns spawns in
      let lf, pf, hm, ot = Pf_core.Static_stats.percentages stats in
      Printf.printf "%-10s %7.1f%% %7.1f%% %8.1f%% %6.1f%% %8d\n"
        wl.Pf_workloads.Workload.name lf pf hm ot
        (Pf_core.Static_stats.total stats))
    (List.filter_map Pf_workloads.Suite.find Pf_workloads.Suite.spec_names)

let figure8 () =
  section "Figure 8: Pipeline parameters";
  Format.printf "%a@." Config.pp Config.polyflow

(* Limit study in the style of Lam and Wilson (Section 5): the ILP that a
   single flow of control can reach vs a control-independence oracle. *)
let limit_study doc window_of =
  section
    "Limit study (Lam & Wilson): single-flow vs control-independence-oracle IPC";
  Printf.printf "%-10s %14s %14s %10s %14s\n" "benchmark" "single-flow"
    "oracle" "ratio" "postdoms IPC";
  hr ();
  List.iter
    (fun w ->
      let run = run_of doc w "postdoms" in
      let trace = (window_of run).Run.trace in
      let sf = Pf_trace.Limits.single_flow_ipc trace in
      let df = Pf_trace.Limits.dataflow_ipc trace in
      Printf.printf "%-10s %14.3f %14.3f %9.1fx %14.3f\n" w sf df (df /. sf)
        (Metrics.ipc run.Sweep.metrics))
    Pf_workloads.Suite.spec_names;
  Printf.printf
    "\nExploiting control independence exposes far more ILP than any single \
     flow of control\ncan reach — the insight control-equivalent spawning \
     builds on.\n"

(* CPI stacks: the cycle-accounting sink re-simulates a few contrasting
   workloads on the windows the sweep measured and attributes every
   task-slot cycle to one loss source. This is the paper's Section 3
   argument in numbers — the superscalar burns its one slot on
   branch-mispredict repair where PolyFlow keeps control-equivalent
   slots doing base work — and Section 4.4's: the reconvergence
   predictor's gap vs compiler postdominators shows up as idle and
   spawn-overhead cycles. Re-simulating with the sink attached also
   asserts sink parity against the sweep's metrics, which on a cached
   run checks a window prepared on demand against the stored result. *)
let cpi_workloads = [ "crafty"; "mcf"; "twolf" ]

let cpi_policies =
  [ Pf_core.Policy.No_spawn; Pf_core.Policy.Postdoms; Pf_core.Policy.Rec_pred ]

let cpi_stacks doc window_of =
  section
    "CPI stacks: task-slot cycles by loss source (percent; Sections 3 and 4.4)";
  Printf.printf "%-10s %-12s" "benchmark" "policy";
  for r = 0 to Pf_obs.Sink.n_reasons - 1 do
    Printf.printf " %8s" (Pf_obs.Cpi_stack.short_name r)
  done;
  Printf.printf "\n";
  hr ();
  List.iter
    (fun w ->
      List.iter
        (fun policy ->
          let label = Pf_core.Policy.name policy in
          let run = run_of doc w label in
          let stack = Pf_obs.Cpi_stack.create () in
          let m =
            Run.simulate
              ~sink:(Pf_obs.Cpi_stack.sink stack)
              ~config:run.Sweep.config (window_of run) ~policy
          in
          if m <> run.Sweep.metrics then
            failwith
              (Printf.sprintf "%s/%s: metrics changed with a sink attached" w
                 label);
          for s = 0 to Pf_obs.Cpi_stack.slots stack - 1 do
            if Pf_obs.Cpi_stack.slot_total stack s <> m.Metrics.cycles then
              failwith
                (Printf.sprintf "%s/%s: slot %d accounts for %d of %d cycles"
                   w label s
                   (Pf_obs.Cpi_stack.slot_total stack s)
                   m.Metrics.cycles)
          done;
          let agg = Pf_obs.Cpi_stack.aggregate stack in
          let tot = float_of_int (max 1 (Pf_obs.Cpi_stack.total stack)) in
          Printf.printf "%-10s %-12s" w label;
          Array.iter
            (fun c -> Printf.printf " %7.1f%%" (100. *. float_of_int c /. tot))
            agg;
          Printf.printf "\n")
        cpi_policies;
      hr ())
    cpi_workloads;
  Printf.printf
    "Each row sums to 100%% of that machine's task-slot cycles (slots x \
     cycles); every slot's\ncolumn sums to the run's cycle count — verified \
     above, and metrics are byte-identical\nwith the sink attached.\n"

(* ------------------------------------------------------------------ *)
(* The loop-nest / DOACROSS dependence-distance figure: the Loopnest   *)
(* family swept across carry spans (and stride/depth variants) under   *)
(* superscalar, postdoms, doacross and adaptive. EXPERIMENTS.md has    *)
(* the recipe; --smoke runs the trend assertions the CI job gates on.  *)

module Loopnest = Pf_workloads.Loopnest

(* Small windows under-warm the spawn-profitability feedback and make
   the distance trend noisy; 12k iterations is the smallest scale at
   which the DOACROSS degradation is cleanly monotone. *)
let loopnest_smoke_window = 12_000

(* The stores the four flags select: the content-addressed result cache
   (docs/EXPERIMENTS.md), which replays an unchanged tree's simulations
   while any engine or config change misses via the digest, and the
   persistent trace store (docs/ENGINE.md), which reloads each workload's
   prepared window instead of re-interpreting the fast-forward prefix. *)
let stores () =
  let cache =
    if !no_cache then None
    else Some (Pf_report.Run_cache.create ~dir:!cache_dir ())
  in
  let trace_store =
    if !no_trace_store then None
    else Some (Pf_trace.Trace_store.create ~dir:!trace_store_dir ())
  in
  (cache, trace_store)

let announce title =
  print_endline title;
  match window_override with
  | Some w -> Printf.printf "(window override: %d instructions)\n" w
  | None -> ()

let finish ~t0 doc =
  if !json_out <> "" then begin
    Sweep.save !json_out doc;
    Printf.printf "\nWrote %d runs to %s (schema %d); render with:\n  dune exec \
                   bin/polyflow_sim.exe -- report %s\n"
      (List.length doc.Sweep.runs) !json_out Pf_report.Manifest.schema_version
      !json_out
  end;
  Printf.printf "\nTotal bench time: %.1f s\n" (Unix.gettimeofday () -. t0)

let run_loopnest () =
  let t0 = Unix.gettimeofday () in
  announce
    "PolyFlow loop-nest family: DOACROSS speculation vs cross-iteration \
     dependence distance";
  let specs = Figures.loopnest_specs ?window:window_override () in
  Printf.printf "\nSweeping %d runs over %d loop nests (%d jobs)...\n%!"
    (List.length specs)
    (List.length
       (List.sort_uniq compare
          (List.map (fun (s : Sweep.spec) -> s.workload) specs)))
    !jobs;
  let cache, trace_store = stores () in
  let runs, _ = Sweep.execute ?cache ?trace_store ~jobs:!jobs specs in
  let doc =
    Sweep.document
      ~tool:"bench/main.exe --loopnest"
      ~jobs:!jobs
      ~wall_s:(Unix.gettimeofday () -. t0)
      runs
  in
  Figures.print Format.std_formatter doc;
  finish ~t0 doc

(* Smoke: the distance sweep at a reduced window, with the acceptance
   assertions behind the CI figure gate. Output is byte-deterministic
   (test/loopnest_smoke.expected diffs it). *)
let run_loopnest_smoke () =
  let check name ok detail =
    Printf.printf "%s: %s\n" name (if ok then "ok" else "FAIL " ^ detail);
    ok
  in
  let specs =
    Figures.loopnest_specs ~window:loopnest_smoke_window
      ~nests:Loopnest.sweep_names ()
  in
  let distances = List.length Loopnest.distances in
  Printf.printf
    "loopnest smoke sweep: %d distances x %d policies, window %d\n" distances
    (List.length specs / distances)
    loopnest_smoke_window;
  let t0 = Unix.gettimeofday () in
  let runs, _ = Sweep.execute ~jobs:4 specs in
  let doc =
    Sweep.document ~tool:"bench/main.exe --loopnest --smoke" ~jobs:4
      ~wall_s:(Unix.gettimeofday () -. t0)
      runs
  in
  Printf.printf "schema_version %d, runs %d\n"
    doc.Sweep.manifest.Pf_report.Manifest.schema_version
    (List.length doc.Sweep.runs);
  let reparsed =
    Sweep.of_json
      (Pf_json.Json.of_string (Pf_json.Json.to_string_pretty (Sweep.to_json doc)))
  in
  let round_trip_ok =
    List.for_all2
      (fun (a : Sweep.run) (b : Sweep.run) ->
        a.Sweep.metrics = b.Sweep.metrics
        && a.Sweep.config = b.Sweep.config
        && a.Sweep.workload = b.Sweep.workload
        && a.Sweep.label = b.Sweep.label)
      doc.Sweep.runs reparsed.Sweep.runs
  in
  let ipc w label = Metrics.ipc (run_of doc w label).Sweep.metrics in
  let ratio w = ipc w "doacross" /. ipc w "superscalar" in
  let doacross_speedups =
    List.map
      (fun w -> Table.speedup_pct doc (run_of doc w "doacross"))
      Loopnest.sweep_names
  in
  let doall_ok = ratio (List.hd Loopnest.sweep_names) >= 1.3 in
  let far_ok =
    List.for_all2
      (fun d s -> d < 4 || s > 0.)
      Loopnest.distances doacross_speedups
  in
  let monotone_ok =
    let rec non_increasing = function
      | a :: (b :: _ as rest) -> b <= a && non_increasing rest
      | _ -> true
    in
    non_increasing doacross_speedups
  in
  let ok1 = check "json round-trip" round_trip_ok "(reparsed document differs)" in
  let ok2 =
    check "doacross >= 1.3x superscalar on the DOALL nest (span 0)" doall_ok
      (Printf.sprintf "(ratio %.2fx)" (ratio (List.hd Loopnest.sweep_names)))
  in
  let ok3 =
    check "doacross beats superscalar at span >= 4" far_ok
      "(speedup <= 0 on a far-carry nest)"
  in
  let ok4 =
    check "doacross speedup degrades monotonically with span" monotone_ok
      (String.concat " "
         (List.map (Printf.sprintf "%+.1f%%") doacross_speedups))
  in
  let all_ok = ok1 && ok2 && ok3 && ok4 in
  if !json_out <> "" then Sweep.save !json_out doc;
  Printf.printf "loopnest smoke: %s\n" (if all_ok then "PASS" else "FAIL");
  exit (if all_ok then 0 else 1)

(* ------------------------------------------------------------------ *)

let run_full () =
  let t_start = Unix.gettimeofday () in
  announce
    "PolyFlow reproduction: regenerating the evaluation of \"Exploiting \
     Postdominance for Speculative Parallelization\" (HPCA 2007)";
  let specs = Figures.specs ?window:window_override () in
  Printf.printf "\nSweeping %d runs over %d workloads (%d jobs)...\n%!"
    (List.length specs)
    (List.length Pf_workloads.Suite.spec_names)
    !jobs;
  let progress ~done_ ~total =
    Printf.eprintf "\r  sweep: %d/%d" done_ total;
    if done_ = total then Printf.eprintf "\n";
    flush stderr
  in
  let cache, trace_store = stores () in
  let stats = ref None in
  let runs, _ =
    Sweep.execute ~progress ?cache ?trace_store
      ~on_stats:(fun s -> stats := Some s)
      ~jobs:!jobs specs
  in
  let sweep_wall = Unix.gettimeofday () -. t_start in
  (* additive "extras" member: how the sweep was executed (cache hits
     vs simulations, and how many simulations shared a same-window
     batch) *)
  let extras =
    match !stats with
    | None -> []
    | Some s ->
        [ ( "execution",
            Pf_json.Json.Obj
              [ ("cached_runs", Pf_json.Json.Int s.Sweep.cached_runs);
                ("simulated_runs", Pf_json.Json.Int s.Sweep.simulated_runs);
                ("batched_runs", Pf_json.Json.Int s.Sweep.batched_runs);
                ("batch_count", Pf_json.Json.Int s.Sweep.batch_count);
                ("prepare_ms", Pf_json.Json.Float s.Sweep.prepare_ms) ] ) ]
  in
  (match !stats with
  | Some s when !verbose ->
      Printf.printf
        "  execution: %d cached, %d simulated (%d of those in %d \
         same-window batches), %.1f ms preparing windows\n%!"
        s.Sweep.cached_runs s.Sweep.simulated_runs s.Sweep.batched_runs
        s.Sweep.batch_count s.Sweep.prepare_ms
  | _ -> ());
  let doc =
    Sweep.document ~extras
      ~tool:
        (Printf.sprintf "bench/main.exe --jobs %d%s" !jobs
           (if !json_out = "" then "" else " --json " ^ !json_out))
      ~jobs:!jobs ~wall_s:sweep_wall runs
  in
  Printf.printf "Sweep done in %.1f s:\n" sweep_wall;
  List.iter
    (fun w ->
      let r = run_of doc w "postdoms" in
      Printf.printf "  %-10s %9s instructions in window, %3d static spawn points\n"
        w
        (Metrics.pretty_int r.Sweep.instructions)
        r.Sweep.static_spawns)
    Pf_workloads.Suite.spec_names;
  figure8 ();
  figure5 ();
  Figures.print Format.std_formatter doc;
  let window_of = window_of ?trace_store () in
  limit_study doc window_of;
  cpi_stacks doc window_of;
  finish ~t0:t_start doc

let () =
  if !smoke then run_loopnest_smoke ()
  else if !loopnest then run_loopnest ()
  else run_full ()
