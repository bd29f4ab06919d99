(* Figure harness: regenerates every table and figure of the paper's
   evaluation (Section 4). It reports its own wall time and nothing
   finer; the repository's benchmark is pfbench (pfbench/README.md).

   All simulations — the workload×policy grid of Figures 9-12 plus the
   config-variant studies (task scaling, ablations, split spawning,
   window sensitivity) — are expressed as one Pf_report.Sweep spec list
   and fanned out over a Domain worker pool (--jobs N). The sweep is
   deterministic in the job count; --json FILE saves it as a
   schema-versioned report document that `polyflow_sim report` renders
   back into the same tables (see docs/REPORT_SCHEMA.md).

   Figures reproduced:
     Figure 5  — static distribution of control-equivalent task types
     Figure 8  — pipeline parameters
     Figure 9  — individual heuristic policies (speedup over superscalar)
     Figure 10 — combinations of heuristics
     Figure 11 — loss when one postdominator category is excluded
     Figure 12 — reconvergence-predictor spawning vs compiler postdominators
   plus extension studies (task-count scaling, ablations, split
   spawning, window sensitivity).

   Set PF_BENCH_WINDOW to override the per-workload window (useful for a
   quick smoke run), or use --smoke for the self-checking loop-nest
   sweep. *)

open Pf_uarch
module Sweep = Pf_report.Sweep
module Table = Pf_report.Table

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

(* ---- the sweep grid ---- *)

let scaling_task_counts = [ 2; 4 ] (* 8 is plain postdoms *)

let ablation_variants =
  [ ("pure-ICount fetch", "postdoms@icount",
     { Config.polyflow with Config.biased_fetch = false });
    ("shared branch history", "postdoms@shared-history",
     { Config.polyflow with Config.shared_history = true });
    ("no ROB shares", "postdoms@no-rob-shares",
     { Config.polyflow with Config.rob_shares = false });
    ("no divert chains", "postdoms@no-divert-chains",
     { Config.polyflow with Config.divert_chains = false });
    ("no sp hint", "postdoms@no-sp-hint",
     { Config.polyflow with Config.sp_hint = false });
    ("no profitability feedback", "postdoms@no-feedback",
     { Config.polyflow with Config.feedback = false });
    ("spawn distance 4096", "postdoms@dist=4096",
     { Config.polyflow with Config.max_spawn_distance = 4096 });
    ("spawn distance 128", "postdoms@dist=128",
     { Config.polyflow with Config.max_spawn_distance = 128 }) ]

let sensitivity_windows = [ 15_000; 30_000; 60_000 ]
let sensitivity_workloads = [ "crafty"; "mcf"; "perlbmk"; "twolf" ]

let grid_policies =
  (* every policy of Figures 9-12 plus the related-work comparison,
     deduplicated by display name *)
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

let full_specs () =
  (* the paper grid covers the 12 SPEC-shaped kernels; the loop-nest
     family is swept by its own figure (--loopnest) *)
  let names = Pf_workloads.Suite.spec_names in
  let per_workload w =
    List.map (fun p -> Sweep.spec ?window:window_override w p) grid_policies
    @ List.map
        (fun c ->
          Sweep.spec ?window:window_override w Pf_core.Policy.Postdoms
            ~label:(Printf.sprintf "postdoms@tasks=%d" c)
            ~config:{ Config.polyflow with Config.max_tasks = c })
        scaling_task_counts
    @ List.map
        (fun (_, label, config) ->
          Sweep.spec ?window:window_override w Pf_core.Policy.Postdoms ~label
            ~config)
        ablation_variants
    @ [ Sweep.spec ?window:window_override w Pf_core.Policy.Postdoms
          ~label:"postdoms@split"
          ~config:{ Config.polyflow with Config.split_spawning = true } ]
  in
  let sensitivity =
    (* pointless under PF_BENCH_WINDOW, which pins every window anyway *)
    if window_override <> None then []
    else
      List.concat_map
        (fun w ->
          List.concat_map
            (fun window ->
              [ Sweep.spec w Pf_core.Policy.No_spawn ~window
                  ~label:(Printf.sprintf "superscalar@win=%d" window);
                Sweep.spec w Pf_core.Policy.Postdoms ~window
                  ~label:(Printf.sprintf "postdoms@win=%d" window) ])
            sensitivity_windows)
        sensitivity_workloads
  in
  List.concat_map per_workload names @ sensitivity

(* ---- result access ---- *)

type ctx = {
  doc : Sweep.t;
  tbl : (string * string, Sweep.run) Hashtbl.t;
  names : string list; (* suite order *)
}

let ctx_of ?(names = Pf_workloads.Suite.spec_names) doc =
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun (r : Sweep.run) -> Hashtbl.replace tbl (r.Sweep.workload, r.Sweep.label) r)
    doc.Sweep.runs;
  { doc; tbl; names }

let run_exn ctx w label =
  match Hashtbl.find_opt ctx.tbl (w, label) with
  | Some r -> r
  | None -> failwith (Printf.sprintf "missing sweep run %s/%s" w label)

let metrics ctx w label = (run_exn ctx w label).Sweep.metrics
let speedup ctx w label = Table.speedup_pct ctx.doc (run_exn ctx w label)

let avg ctx label =
  match Table.average_speedup ctx.doc ~label with
  | Some v -> v
  | None -> failwith (Printf.sprintf "no runs for label %s" label)

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

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

let speedup_table ctx policies =
  Format.print_flush ();
  Table.print_speedup_table ~out:Format.std_formatter ~workloads:ctx.names
    ~labels:(List.map Pf_core.Policy.name policies)
    ctx.doc;
  Format.print_flush ()

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

let figure9 ctx =
  section
    "Figure 9: Individual heuristic policies for spawn points (speedup over \
     the 8-wide superscalar)";
  speedup_table ctx Pf_core.Policy.figure9_policies;
  (* the paper's headline: postdoms more than doubles the best heuristic *)
  let best_heuristic =
    Pf_core.Policy.figure9_policies
    |> List.filter (fun p -> p <> Pf_core.Policy.Postdoms)
    |> List.map (fun p -> (Pf_core.Policy.name p, avg ctx (Pf_core.Policy.name p)))
    |> List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
         ("none", neg_infinity)
  in
  let postdoms = avg ctx "postdoms" in
  Printf.printf
    "\nHeadline: postdoms averages %+.1f%%; best individual heuristic is %s \
     at %+.1f%% (ratio %.2fx; paper reports >2x)\n"
    postdoms (fst best_heuristic) (snd best_heuristic)
    (postdoms /. snd best_heuristic)

let figure10 ctx =
  section "Figure 10: Combinations of heuristics for spawn points";
  speedup_table ctx Pf_core.Policy.figure10_policies;
  let best_combo =
    Pf_core.Policy.figure10_policies
    |> List.filter (fun p -> p <> Pf_core.Policy.Postdoms)
    |> List.map (fun p -> avg ctx (Pf_core.Policy.name p))
    |> List.fold_left max neg_infinity
  in
  let postdoms = avg ctx "postdoms" in
  Printf.printf
    "\nHeadline: postdoms averages %+.1f%% vs best combination %+.1f%% \
     (%+.1f%% more; paper reports ~33%% more)\n"
    postdoms best_combo (postdoms -. best_combo)

let figure11 ctx =
  section
    "Figure 11: Loss in percent speedup when one category is excluded \
     (normalized to superscalar IPC)";
  Printf.printf "%-10s" "benchmark";
  List.iter
    (fun p -> Printf.printf " %17s" (Pf_core.Policy.name p))
    Pf_core.Policy.figure11_policies;
  Printf.printf "\n";
  hr ();
  let losses =
    List.map
      (fun w ->
        let full = Metrics.ipc (metrics ctx w "postdoms") in
        let ss = Metrics.ipc (metrics ctx w "superscalar") in
        let row =
          List.map
            (fun p ->
              let reduced = Metrics.ipc (metrics ctx w (Pf_core.Policy.name p)) in
              100. *. (full -. reduced) /. ss)
            Pf_core.Policy.figure11_policies
        in
        Printf.printf "%-10s" w;
        List.iter (fun l -> Printf.printf " %+16.1f%%" l) row;
        Printf.printf "\n";
        row)
      ctx.names
  in
  hr ();
  Printf.printf "%-10s" "Average";
  List.iteri
    (fun k _ ->
      let column = mean (List.map (fun row -> List.nth row k) losses) in
      Printf.printf " %+16.1f%%" column)
    Pf_core.Policy.figure11_policies;
  Printf.printf "\n"

let figure12 ctx =
  section
    "Figure 12: Spawning using reconvergence prediction (speedup over the \
     superscalar)";
  speedup_table ctx Pf_core.Policy.figure12_policies;
  Printf.printf
    "\nThe dynamic reconvergence predictor approximates compiler-generated \
     immediate postdominators;\nwarm-up and hard-to-identify reconvergences \
     account for the gap (Section 4.4).\n"

(* Extension study: how much of the postdoms speedup survives with fewer
   task contexts? (Section 6 discusses the resource limits.) *)
let task_scaling ctx =
  section "Extension: postdoms speedup vs number of task contexts";
  let columns =
    List.map (fun c -> (c, Printf.sprintf "postdoms@tasks=%d" c))
      scaling_task_counts
    @ [ (8, "postdoms") ]
  in
  Printf.printf "%-10s" "benchmark";
  List.iter (fun (c, _) -> Printf.printf " %8d" c) columns;
  Printf.printf "\n";
  hr ();
  List.iter
    (fun w ->
      Printf.printf "%-10s" w;
      List.iter
        (fun (_, label) -> Printf.printf " %+7.1f%%" (speedup ctx w label))
        columns;
      Printf.printf "\n")
    ctx.names

(* Related-work comparison (Section 5): the DMT fall-through heuristics
   against dynamic reconvergence prediction and compiler postdominators. *)
let related_work ctx =
  section
    "Related work (Section 5): DMT heuristics vs reconvergence prediction vs postdominators";
  speedup_table ctx
    [ Pf_core.Policy.Dmt; Pf_core.Policy.Rec_pred; Pf_core.Policy.Postdoms ];
  Printf.printf
    "\nDMT approximates loop and procedure fall-throughs dynamically but cannot\njump indirect jumps or hammocks; the paper's techniques capture strictly\nmore spawn opportunities.\n"

(* Limit study in the style of Lam and Wilson (Section 5): the ILP that a
   single flow of control can reach vs a control-independence oracle. *)
let limit_study ctx window_of =
  section
    "Limit study (Lam & Wilson): single-flow vs control-independence-oracle IPC";
  Printf.printf "%-10s %14s %14s %10s %14s\n" "benchmark" "single-flow"
    "oracle" "ratio" "postdoms IPC";
  hr ();
  List.iter
    (fun w ->
      let trace = (window_of (run_exn ctx w "postdoms")).Run.trace in
      let sf = Pf_trace.Limits.single_flow_ipc trace in
      let df = Pf_trace.Limits.dataflow_ipc trace in
      Printf.printf "%-10s %14.3f %14.3f %9.1fx %14.3f\n" w sf df (df /. sf)
        (Metrics.ipc (metrics ctx w "postdoms")))
    ctx.names;
  Printf.printf
    "\nExploiting control independence exposes far more ILP than any single \
     flow of control\ncan reach — the insight control-equivalent spawning \
     builds on.\n"

(* Where the speedup comes from: retirement-stall attribution for the
   baseline vs postdoms (Section 2.2 says different task types attack
   different stall sources: misprediction penalty, I-cache misses,
   outer-loop parallelism). *)
let stall_sources ctx =
  section
    "Sources of speedup: retirement-stall cycles, superscalar vs postdoms";
  Printf.printf "%-10s %25s %25s\n" "" "superscalar" "postdoms";
  Printf.printf "%-10s %12s %12s %12s %12s\n" "benchmark" "frontend" "exec"
    "frontend" "exec";
  hr ();
  List.iter
    (fun w ->
      let b = metrics ctx w "superscalar" in
      let p = metrics ctx w "postdoms" in
      let frontend (m : Metrics.t) =
        m.Metrics.stall_frontend + m.Metrics.stall_divert + m.Metrics.stall_sched
      in
      Printf.printf "%-10s %12s %12s %12s %12s\n" w
        (Metrics.pretty_int (frontend b))
        (Metrics.pretty_int b.Metrics.stall_exec)
        (Metrics.pretty_int (frontend p))
        (Metrics.pretty_int p.Metrics.stall_exec))
    ctx.names;
  Printf.printf
    "\nControl-equivalent spawning removes frontend stalls (mispredict \
     repair, taken-branch\nlimits, I-cache misses) and overlaps execution \
     latency with younger tasks' work.\n"

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

let cpi_stacks ctx window_of =
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
          let run = run_exn ctx w label in
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

(* Design ablations: each of the DESIGN.md engine refinements switched
   off individually, measured on the postdoms policy. *)
let ablations ctx =
  section
    "Design ablations: postdoms average speedup with one refinement disabled";
  let variants =
    ("full engine", "postdoms")
    :: List.map (fun (name, label, _) -> (name, label)) ablation_variants
  in
  Printf.printf "%-28s %12s %14s\n" "variant" "avg speedup" "worst bench";
  hr ();
  List.iter
    (fun (name, label) ->
      let per_bench = List.map (fun w -> (w, speedup ctx w label)) ctx.names in
      let worst =
        List.fold_left
          (fun (bn, bv) (n, v) -> if v < bv then (n, v) else (bn, bv))
          ("", infinity) per_bench
      in
      Printf.printf "%-28s %+11.1f%% %10s %+5.1f%%\n" name (avg ctx label)
        (fst worst) (snd worst))
    variants

(* Future work implemented (Section 6): the paper notes PolyFlow "allows
   each thread to spawn only a single successor, so PolyFlow can spawn
   only the outer-most branch of a nested if-then-else". Split spawning
   lifts that: any task may split its own region. *)
let future_work ctx =
  section
    "Future work (Section 6): one successor per task vs split spawning";
  Printf.printf "%-10s %14s %16s\n" "benchmark" "postdoms" "postdoms+split";
  hr ();
  let deltas =
    List.map
      (fun w ->
        let s1 = speedup ctx w "postdoms" in
        let s2 = speedup ctx w "postdoms@split" in
        Printf.printf "%-10s %+13.1f%% %+15.1f%%\n" w s1 s2;
        s2 -. s1)
      ctx.names
  in
  Printf.printf "\nAverage gain from spawning past nested hammocks: %+.1f points\n"
    (mean deltas)

(* Methodological robustness: the postdoms result at different window
   sizes (the paper simulates 100M instructions; we verify the shape is
   not an artefact of the window length). *)
let window_sensitivity ctx =
  section "Window-size sensitivity: postdoms speedup vs window length";
  Printf.printf "%-10s" "benchmark";
  List.iter (fun w -> Printf.printf " %9d" w) sensitivity_windows;
  Printf.printf "\n";
  hr ();
  List.iter
    (fun name ->
      Printf.printf "%-10s" name;
      List.iter
        (fun window ->
          let base =
            (run_exn ctx name (Printf.sprintf "superscalar@win=%d" window))
              .Sweep.metrics
          in
          let m =
            (run_exn ctx name (Printf.sprintf "postdoms@win=%d" window))
              .Sweep.metrics
          in
          Printf.printf " %+8.1f%%" (Metrics.speedup_pct ~baseline:base m))
        sensitivity_windows;
      Printf.printf "\n")
    sensitivity_workloads

(* ------------------------------------------------------------------ *)
(* The loop-nest / DOACROSS dependence-distance figure: the Loopnest   *)
(* family swept across carry spans (and stride/depth variants) under   *)
(* superscalar, postdoms, doacross and adaptive. EXPERIMENTS.md has    *)
(* the recipe; --smoke runs the trend assertions the CI job gates on.  *)

module Loopnest = Pf_workloads.Loopnest

let loopnest_policies =
  Pf_core.Policy.[ No_spawn; Postdoms; Doacross; Adaptive ]

(* Small windows under-warm the spawn-profitability feedback and make
   the distance trend noisy; 12k iterations is the smallest scale at
   which the DOACROSS degradation is cleanly monotone. *)
let loopnest_smoke_window = 12_000

let loopnest_variant_names =
  (* the registered stride/depth variants: every Loopnest member that is
     not part of the distance sweep itself *)
  List.filter
    (fun n ->
      String.length n >= 8
      && String.sub n 0 8 = "loopnest"
      && not (List.mem n Loopnest.sweep_names))
    Pf_workloads.Suite.names

let loopnest_specs ~window names =
  List.concat_map
    (fun w -> List.map (fun p -> Sweep.spec ?window w p) loopnest_policies)
    names

let loopnest_distance_table ctx =
  section
    "Dependence-distance figure: speedup over the superscalar vs carry span \
     (unit stride, depth 1)";
  Printf.printf "%-22s %8s" "nest" "span";
  List.iter
    (fun p -> Printf.printf " %12s" (Pf_core.Policy.name p))
    (List.tl loopnest_policies);
  Printf.printf "\n";
  hr ();
  List.iter2
    (fun d w ->
      Printf.printf "%-22s %8d" w d;
      List.iter
        (fun p ->
          Printf.printf " %+11.1f%%" (speedup ctx w (Pf_core.Policy.name p)))
        (List.tl loopnest_policies);
      Printf.printf "\n")
    Loopnest.distances Loopnest.sweep_names;
  Printf.printf
    "\nAt span 0 every iteration is independent (DOALL): back-edge tasks \
     overlap whole\niterations. Each extra unit of span serializes one more \
     predecessor's store into\nthe iteration, so the DOACROSS win decays \
     toward superscalar parity.\n"

let loopnest_variant_table ctx =
  section
    "Stride and depth variants (carry span 2): speedup over the superscalar";
  speedup_table
    { ctx with names = loopnest_variant_names }
    (List.tl loopnest_policies)

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
  let names = Loopnest.sweep_names @ loopnest_variant_names in
  let specs = loopnest_specs ~window:window_override names in
  Printf.printf "\nSweeping %d runs over %d loop nests (%d jobs)...\n%!"
    (List.length specs) (List.length names) !jobs;
  let cache, trace_store = stores () in
  let runs, _ = Sweep.execute ?cache ?trace_store ~jobs:!jobs specs in
  let doc =
    Sweep.document
      ~tool:"bench/main.exe --loopnest"
      ~jobs:!jobs
      ~wall_s:(Unix.gettimeofday () -. t0)
      runs
  in
  let ctx = ctx_of ~names doc in
  loopnest_distance_table ctx;
  loopnest_variant_table ctx;
  finish ~t0 doc

(* Smoke: the distance sweep at a reduced window, with the acceptance
   assertions behind the CI figure gate. Output is byte-deterministic
   (test/loopnest_smoke.expected diffs it). *)
let run_loopnest_smoke () =
  let check name ok detail =
    Printf.printf "%s: %s\n" name (if ok then "ok" else "FAIL " ^ detail);
    ok
  in
  Printf.printf
    "loopnest smoke sweep: %d distances x %d policies, window %d\n"
    (List.length Loopnest.distances)
    (List.length loopnest_policies)
    loopnest_smoke_window;
  let t0 = Unix.gettimeofday () in
  let specs =
    loopnest_specs ~window:(Some loopnest_smoke_window) Loopnest.sweep_names
  in
  let runs, _ = Sweep.execute ~jobs:4 specs in
  let doc =
    Sweep.document ~tool:"bench/main.exe --loopnest --smoke" ~jobs:4
      ~wall_s:(Unix.gettimeofday () -. t0)
      runs
  in
  Printf.printf "schema_version %d, runs %d\n"
    doc.Sweep.manifest.Pf_report.Manifest.schema_version
    (List.length doc.Sweep.runs);
  let ctx = ctx_of ~names:Loopnest.sweep_names doc in
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
  let ratio w =
    Metrics.ipc (metrics ctx w "doacross")
    /. Metrics.ipc (metrics ctx w "superscalar")
  in
  let doacross_speedups =
    List.map (fun w -> speedup ctx w "doacross") Loopnest.sweep_names
  in
  let doall_ok = ratio (List.hd Loopnest.sweep_names) >= 1.3 in
  let far_ok =
    List.for_all2
      (fun d w -> d < 4 || speedup ctx w "doacross" > 0.)
      Loopnest.distances Loopnest.sweep_names
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
  let specs = full_specs () in
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
  let ctx = ctx_of doc in
  let window_of = window_of ?trace_store () in
  Printf.printf "Sweep done in %.1f s:\n" sweep_wall;
  List.iter
    (fun w ->
      let r = run_exn ctx w "postdoms" in
      Printf.printf "  %-10s %9s instructions in window, %3d static spawn points\n"
        w
        (Metrics.pretty_int r.Sweep.instructions)
        r.Sweep.static_spawns)
    ctx.names;
  figure8 ();
  figure5 ();
  figure9 ctx;
  figure10 ctx;
  figure11 ctx;
  figure12 ctx;
  related_work ctx;
  limit_study ctx window_of;
  task_scaling ctx;
  stall_sources ctx;
  cpi_stacks ctx window_of;
  ablations ctx;
  future_work ctx;
  if window_override = None then window_sensitivity ctx;
  finish ~t0:t_start doc

let () =
  if !smoke then run_loopnest_smoke ()
  else if !loopnest then run_loopnest ()
  else run_full ()
