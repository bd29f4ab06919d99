(* pfbench: the repository's benchmark. Four workloads, end-to-end
   metrics from untraced runs, per-layer metrics from a separate traced
   run, every simulated result checked against committed digests.
   pfbench/README.md documents the workloads, the metrics and how to
   run, compare and record.

     pfbench [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--record]
     pfbench --smoke
     pfbench compare A.json B.json
     pfbench digests

   Run from the repository root: BENCH_pfbench.json and, when traced,
   BENCH_trace_<W>.json are written there; scratch stores live under
   _pfbench/ and are removed on exit. With one --workload, the last
   stdout line is one JSON object: correct, attempted, failed and the
   metrics by name with their units. *)

module B = Pf_bench_support.Bench_support
module Json = Pf_json.Json
module Sweep = Pf_report.Sweep

(* load comes from this process: at most two worker domains, threads
   and connections, fewer on a one-core machine *)
let jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

let workloads = [ "figure-cold"; "figure-warm"; "memspec-cold"; "serve-mixed" ]

let end_to_end =
  [ ("setup_s", "s"); ("op_ms", "ms"); ("op_cpu_ms", "ms"); ("peak_rss_mb", "MiB") ]

let per_layer =
  [ ("prepare.windows", "count");
    ("prepare.machine_ms", "ms");
    ("prepare.fastforward_ms", "ms");
    ("prepare.capture_ms", "ms");
    ("prepare.depinfo_ms", "ms");
    ("prepare.store_key_ms", "ms");
    ("prepare.store_hit_ms", "ms");
    ("prepare.store_miss_ms", "ms");
    ("prepare.store_hit_ratio", "ratio");
    ("prepare.flatten_ms", "ms");
    ("prepare.occurrence_ms", "ms");
    ("prepare.classify_ms", "ms");
    ("prepare.alloc_words_per_instr", "words/instr") ]
  @ List.map
      (fun p -> ("simulate.ns_per_instr." ^ Pf_core.Policy.name p, "ns/instr"))
      Attribution.policy_classes
  @ [ ("simulate.batch_ns_per_instr", "ns/instr");
      ("simulate.batch_speedup", "x");
      ("simulate.alloc_words_per_instr", "words/instr");
      ("simulate.ns_per_cycle", "ns/cycle");
      ("simulate.refetch_ratio", "ratio");
      ("simulate.input_us", "us");
      ("model.postdoms_speedup_pct", "%");
      ("sweep.cache_find_ms", "ms");
      ("sweep.cache_store_ms", "ms");
      ("sweep.cache_hit_ratio", "ratio");
      ("sweep.prepare_frac", "fraction");
      ("sweep.batched_frac", "fraction");
      ("sweep.pool_busy_frac", "fraction");
      ("sweep.setup_ms", "ms");
      ("serve.hit_p50_ms", "ms");
      ("serve.hit_p99_ms", "ms");
      ("serve.miss_p50_ms", "ms");
      ("serve.miss_p99_ms", "ms");
      ("serve.server_p50_ms", "ms");
      ("serve.wire_p50_ms", "ms");
      ("serve.dispatch_hit_p50_ms", "ms");
      ("serve.codec_us", "us");
      ("serve.batched_frac", "fraction");
      ("serve.prep_reuse_frac", "fraction");
      ("trace.overhead_pct", "%");
      ("trace.unattributed_frac", "fraction") ]

(* the committed digests each workload's results are held to *)
let digest_set = function
  | "figure-cold" | "figure-warm" -> "figure"
  | "memspec-cold" -> "memspec"
  | _ -> "serve"

let digest_specs = function
  | "figure" -> Grid.figure ()
  | "memspec" -> Grid.memspec ()
  | _ -> Grid.hit_set ()

let sweep_of = function
  | "figure-cold" -> Sweeps.figure_cold
  | "figure-warm" -> Sweeps.figure_warm
  | _ -> Sweeps.memspec_cold

(* ---- one workload ---- *)

let run_workload ~work ~seed ~seconds ~trace ~check name =
  if name = "serve-mixed" then
    Serve_mixed.run ~work ~jobs ~seed ~seconds ~window:Grid.serve_window ~setups:5
      ~traced:trace ~check
  else
    let w = sweep_of name in
    if trace then Sweeps.traced ~work ~jobs ~seed ~check ~rounds:(if w.Sweeps.warm then 5 else 3) w
    else Sweeps.untraced ~work ~jobs ~seed ~seconds ~check w

let metric_table ~trace = if trace then per_layer else end_to_end

let metrics_json ~trace (o : Outcome.t) =
  Json.Obj
    (List.map
       (fun (name, unit_) ->
         ( name,
           Json.Obj
             [ ("value", Json.Float (List.assoc name o.Outcome.metrics));
               ("unit", Json.String unit_) ] ))
       (metric_table ~trace))

let result_line ~trace (o : Outcome.t) =
  Json.Obj
    [ ("correct", Json.Bool (o.Outcome.failed = 0));
      ("attempted", Json.Int o.Outcome.attempted);
      ("failed", Json.Int o.Outcome.failed);
      ("metrics", metrics_json ~trace o) ]

let print_metrics ~trace name (o : Outcome.t) =
  Printf.printf "%s: %d operations, %d failed\n" name o.Outcome.attempted o.Outcome.failed;
  List.iter
    (fun (m, unit_) ->
      Printf.printf "  %-34s %14.4f %s\n" m (List.assoc m o.Outcome.metrics) unit_)
    (metric_table ~trace);
  flush stdout

(* ---- BENCH_pfbench.json ---- *)

let bench_json = "BENCH_pfbench.json"

let save_bench ~seed ~seconds ~trace ~wall_s results =
  let manifest =
    Pf_report.Manifest.create
      ~tool:(String.concat " " (Array.to_list Sys.argv))
      ~jobs ~wall_s
  in
  let values (o : Outcome.t) =
    Json.Obj
      (List.map (fun (m, _) -> (m, Json.Float (List.assoc m o.Outcome.metrics))) (metric_table ~trace))
  in
  let entry (name, (o : Outcome.t)) =
    Json.Obj
      [ ("created_unix", Json.Float manifest.Pf_report.Manifest.created_unix);
        ("git", Json.String manifest.Pf_report.Manifest.git);
        ("timing_version", Json.String Pf_uarch.Engine.timing_version);
        ("workload", Json.String name);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool trace);
        ("attempted", Json.Int o.Outcome.attempted);
        ("failed", Json.Int o.Outcome.failed);
        ("metrics", values o) ]
  in
  let run (name, (o : Outcome.t)) =
    Json.Obj
      [ ("workload", Json.String name);
        ("seed", Json.Int seed);
        ("trace", Json.Bool trace);
        ("correct", Json.Bool (o.Outcome.failed = 0));
        ("attempted", Json.Int o.Outcome.attempted);
        ("failed", Json.Int o.Outcome.failed);
        ("metrics", metrics_json ~trace o);
        ("extra", Json.Obj (List.remove_assoc "chrome" o.Outcome.extra)) ]
  in
  let doc =
    Json.Obj
      [ ("schema_version", Json.Int Pf_report.Manifest.schema_version);
        ("bench", Json.String "pfbench");
        ("manifest", Pf_report.Manifest.to_json manifest);
        ("runs", Json.List (List.map run results)) ]
  in
  B.save bench_json (B.with_history bench_json ~entries:(List.map entry results) doc)

(* ---- pfbench/trajectory.jsonl ---- *)

let trajectory = "pfbench/trajectory.jsonl"

let cpu_model () =
  match
    List.find_opt
      (fun l -> String.length l > 10 && String.sub l 0 10 = "model name")
      (String.split_on_char '\n' (B.read_file "/proc/cpuinfo"))
  with
  | Some l -> String.trim (List.nth (String.split_on_char ':' l) 1)
  | None -> "unknown"
  | exception Sys_error _ -> "unknown"

(* On a dirty tree the rev alone names no measured code, so the line
   also lists the top-level paths that differ from it, Markdown
   documents left out: a baseline recorded before its own commit lists
   only pfbench/ and root files, which says lib/ and bin/ are the
   rev's. *)
let uncommitted_paths () =
  try
    let ic = Unix.open_process_in "git status --porcelain 2>/dev/null" in
    let rec lines acc =
      match input_line ic with
      | l when String.length l > 3 && not (Filename.check_suffix l ".md") ->
          let path = String.sub l 3 (String.length l - 3) in
          lines (List.hd (String.split_on_char '/' path) :: acc)
      | _ -> lines acc
      | exception End_of_file -> acc
    in
    let paths = lines [] in
    ignore (Unix.close_process_in ic);
    List.sort_uniq compare paths
  with Unix.Unix_error _ | Sys_error _ -> []

let record ~seed ~seconds results =
  let line =
    Json.Obj
      [ ("rev", Json.String (Pf_report.Manifest.git_describe ()));
        ("uncommitted", Json.List (List.map (fun p -> Json.String p) (uncommitted_paths ())));
        ("timing_version", Json.String Pf_uarch.Engine.timing_version);
        ( "machine",
          Json.Obj
            [ ("nproc", Json.Int (Domain.recommended_domain_count ()));
              ("ocaml", Json.String Sys.ocaml_version);
              ("cpu", Json.String (cpu_model ())) ] );
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ( "workloads",
          Json.Obj
            (List.map
               (fun (name, (o : Outcome.t)) ->
                 ( name,
                   Json.Obj
                     (List.map
                        (fun (m, _) -> (m, Json.Float (List.assoc m o.Outcome.metrics)))
                        end_to_end) ))
               results) ) ]
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 trajectory in
  output_string oc (Json.to_string line ^ "\n");
  close_out oc

(* ---- compare ---- *)

(* choosing-metrics section 6.5: worse beyond the bound; unresolved
   when either side's spread exceeds the bound, unless every run of B
   beats every run of A; better only past A's own quartile spread with
   nine tenths of pairs won *)
let verdict ~lower ~bound a b =
  let beats x y = if lower then x < y else x > y in
  let qa1, ma, qa3 = B.quartiles a and qb1, mb, qb3 = B.quartiles b in
  let spread q1 m q3 = if m = 0. then 0. else (q3 -. q1) /. Float.abs m in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b in
  let pairs =
    if List.length a = List.length b then List.combine a b
    else List.concat_map (fun x -> List.map (fun y -> (x, y)) b) a
  in
  let wins = List.length (List.filter (fun (x, y) -> beats y x) pairs) in
  let worse_by = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
  if spread qa1 ma qa3 > bound || spread qb1 mb qb3 > bound then
    if all_better then "better" else "unresolved"
  else if worse_by > bound then "worse"
  else if -.worse_by *. Float.abs ma > qa3 -. qa1
          && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
  then "better"
  else "unchanged"

let compare_files fa fb =
  let spec = Json.of_string (B.read_file "BENCHMARK.json") in
  let metrics =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "better" m) = "lower",
          Json.to_float (Json.member "bound" m) ))
      (Json.to_list (Json.member "end_to_end" spec))
  in
  let load f =
    List.filter
      (fun e -> not (Json.to_bool (Json.member "trace" e)))
      (Json.to_list (Json.member "history" (Json.of_string (B.read_file f))))
  in
  let ha = load fa and hb = load fb in
  let values h w m =
    List.filter_map
      (fun e ->
        if Json.to_str (Json.member "workload" e) <> w then None
        else Option.map Json.to_float (Json.member_opt m (Json.member "metrics" e)))
      h
  in
  Printf.printf "%-13s %-12s %28s %28s %8s  %s\n" "workload" "metric" "A median [q1, q3] n"
    "B median [q1, q3] n" "delta" "verdict";
  let unresolved_or_worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m, lower, bound) ->
          let a = values ha w m and b = values hb w m in
          if a <> [] && b <> [] then begin
            let cell l =
              let q1, med, q3 = B.quartiles l in
              Printf.sprintf "%.4g [%.4g, %.4g] %d" med q1 q3 (List.length l)
            in
            let v = verdict ~lower ~bound a b in
            if v = "worse" || v = "unresolved" then incr unresolved_or_worse;
            let _, ma, _ = B.quartiles a and _, mb, _ = B.quartiles b in
            Printf.printf "%-13s %-12s %28s %28s %+7.1f%%  %s\n" w m (cell a) (cell b)
              (100. *. (mb -. ma) /. Float.abs ma) v
          end)
        metrics)
    workloads;
  exit (if !unresolved_or_worse = 0 then 0 else 1)

(* ---- digests: regenerate expected/*.digests from solo simulation ---- *)

let write_digests () =
  List.iter
    (fun set ->
      let runs, _ = Sweep.execute ~jobs ~batch:1 (digest_specs set) in
      Check.write_expected (Check.expected_path set) runs;
      Printf.printf "%s: %d runs\n%!" (Check.expected_path set) (List.length runs))
    [ "figure"; "memspec"; "serve" ]

(* ---- smoke: the sweeps at window 2000, stdout byte-deterministic ---- *)

let smoke_window = 2_000

(* The sweeps run at window 2000 against a solo, uncached reference
   simulation. serve-mixed runs at its own window 4000, which is cheap,
   against the committed expected/serve.digests, so digests a model
   change left stale fail here rather than in the first full run. *)
let run_smoke work =
  let failures = ref 0 in
  let check name ok =
    Printf.printf "check %s: %s\n%!" name (if ok then "ok" else "FAIL");
    (* stdout is lost when the smoke fails under dune; stderr is shown *)
    if not ok then begin
      Printf.eprintf "pfbench smoke: check %s failed\n%!" name;
      incr failures
    end
  in
  let reference specs =
    let runs, _ = Sweep.execute ~jobs ~batch:1 specs in
    let tbl = Hashtbl.create 512 in
    List.iter (fun r -> Hashtbl.replace tbl (Check.run_key r) (Check.run_digest r)) runs;
    Check.mismatches tbl
  in
  let window = smoke_window in
  let figure = reference (Grid.figure ~window ()) in
  let report ?(against = "the reference") name ~trace (o : Outcome.t) =
    let table = metric_table ~trace in
    Printf.printf "%s%s: %s\n" name (if trace then " (traced)" else "")
      (String.concat " " (List.map fst table));
    check
      (Printf.sprintf "%s outputs match %s" name against)
      (o.Outcome.failed = 0 && o.Outcome.attempted > 0);
    check
      (name ^ " reports every metric")
      (List.for_all
         (fun (m, _) ->
           match List.assoc_opt m o.Outcome.metrics with
           | Some v -> Float.is_finite v && (trace || v > 0.)
           | None -> false)
         table)
  in
  let sweep name ~check =
    report name ~trace:false
      (Sweeps.untraced ~work ~jobs ~seed:1 ~seconds:0. ~window ~check (sweep_of name))
  in
  sweep "figure-cold" ~check:figure;
  sweep "figure-warm" ~check:figure;
  sweep "memspec-cold" ~check:(reference (Grid.memspec ~window ()));
  report "serve-mixed" ~trace:false ~against:"expected/serve.digests"
    (Serve_mixed.run ~work ~jobs ~seed:1 ~seconds:3. ~window:Grid.serve_window ~setups:1
       ~traced:false
       ~check:(Check.mismatches (Check.load_expected (Check.expected_path "serve"))));
  report "figure-cold" ~trace:true
    (Sweeps.traced ~work ~jobs ~seed:1 ~window ~check:figure ~rounds:1 Sweeps.figure_cold);
  let base = [ 10.; 10.1; 9.9; 10.; 10.2 ] in
  let scaled k = List.map (fun v -> k *. v) base in
  check "compare verdicts"
    (List.map
       (fun b -> verdict ~lower:true ~bound:0.1 base b)
       [ base; scaled 1.3; scaled 0.8; [ 5.; 15.; 10.; 8.; 12. ] ]
    = [ "unchanged"; "worse"; "better"; "unresolved" ]);
  Printf.printf "pfbench smoke: %s\n" (if !failures = 0 then "PASS" else "FAIL");
  !failures = 0

(* ---- child mode (one sweep repetition) ---- *)

let run_child argv =
  let set = ref "" and seed = ref 1 and rep = ref 0 and cache = ref "" and tstore = ref "" in
  let t0 = ref 0. and out = ref "" and window = ref None and child_jobs = ref jobs in
  let setup_only = ref false in
  Arg.parse_argv argv
    [ ("--set", Arg.Set_string set, "");
      ("--seed", Arg.Set_int seed, "");
      ("--rep", Arg.Set_int rep, "");
      ("--cache", Arg.Set_string cache, "");
      ("--tstore", Arg.Set_string tstore, "");
      ("--jobs", Arg.Set_int child_jobs, "");
      ("--t0", Arg.Set_float t0, "");
      ("--out", Arg.Set_string out, "");
      ("--window", Arg.Int (fun w -> window := Some w), "");
      ("--setup-only", Arg.Set setup_only, "") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pfbench child";
  Sweeps.child ~set:!set ~window:!window ~seed:!seed ~rep:!rep ~cache_dir:!cache
    ~tstore_dir:!tstore ~t0:!t0 ~jobs:!child_jobs ~setup_only:!setup_only ~out:!out

(* ---- main ---- *)

(* scratch stores for one invocation, removed however it exits (a
   signal included), after any child still using them is gone *)
let with_work f =
  let work = B.temp_dir ~base:"_pfbench" "run" in
  at_exit (fun () ->
      B.kill_children ();
      B.rm_rf work;
      try Unix.rmdir "_pfbench" with Unix.Unix_error _ -> ());
  f work

let main () =
  let selected = ref [] and seed = ref 1 and seconds = ref 25. and trace = ref false in
  let do_record = ref false and smoke = ref false in
  Arg.parse
    [ ( "--workload",
        Arg.Symbol (workloads, fun w -> selected := !selected @ [ w ]),
        "  run one workload (repeatable; default: all four)" );
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per workload (default 25)");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun v -> trace := v = "1"),
        "  1: the traced run, per-layer metrics (default 0)" );
      ("--record", Arg.Set do_record, "  append the end-to-end results to pfbench/trajectory.jsonl");
      ("--smoke", Arg.Set smoke, "  every workload at smoke scale, self-checking, ~10 s") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pfbench [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--record] | \
     --smoke | compare A.json B.json | digests";
  if !smoke then exit (if with_work run_smoke then 0 else 1);
  let names = if !selected = [] then workloads else !selected in
  let trace = !trace in
  let t_start = Unix.gettimeofday () in
  let expected = Hashtbl.create 4 in
  let check_for name =
    let set = digest_set name in
    let tbl =
      match Hashtbl.find_opt expected set with
      | Some t -> t
      | None ->
          let t = Check.load_expected (Check.expected_path set) in
          Hashtbl.replace expected set t;
          t
    in
    Check.mismatches tbl
  in
  let results =
    with_work (fun work ->
        List.map
          (fun name ->
            let o =
              run_workload ~work ~seed:!seed ~seconds:!seconds ~trace ~check:(check_for name)
                name
            in
            print_metrics ~trace name o;
            (match List.assoc_opt "chrome" o.Outcome.extra with
            | Some chrome when trace -> B.save (Printf.sprintf "BENCH_trace_%s.json" name) chrome
            | _ -> ());
            (name, o))
          names)
  in
  save_bench ~seed:!seed ~seconds:!seconds ~trace
    ~wall_s:(Unix.gettimeofday () -. t_start)
    results;
  if !do_record && not trace then record ~seed:!seed ~seconds:!seconds results;
  let failed = List.fold_left (fun a (_, o) -> a + o.Outcome.failed) 0 results in
  (match results with
  | [ (_, o) ] -> print_endline (Json.to_string (result_line ~trace o))
  | _ ->
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("correct", Json.Bool (failed = 0));
                ( "attempted",
                  Json.Int (List.fold_left (fun a (_, o) -> a + o.Outcome.attempted) 0 results) );
                ("failed", Json.Int failed);
                ( "metrics",
                  Json.Obj
                    (List.concat_map
                       (fun (name, o) ->
                         match metrics_json ~trace o with
                         | Json.Obj l -> List.map (fun (m, v) -> (name ^ "/" ^ m, v)) l
                         | _ -> [])
                       results) ) ])));
  exit (if failed = 0 then 0 else 1)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  match Array.to_list Sys.argv with
  | _ :: "child" :: _ ->
      run_child (Array.append [| "pfbench child" |] (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)))
  | [ _; "compare"; a; b ] -> compare_files a b
  | [ _; "digests" ] -> write_digests ()
  | _ -> main ()
