(* polyflow_sim: tooling around the PolyFlow reproduction.

   Subcommands:
     run        simulate a workload under one or all spawn policies
     report     render tables from a saved BENCH_*.json report document
     list       list the available workloads
     disasm     disassemble a workload binary
     spawns     show classified spawn points and Figure-5 statistics
     callgraph  print the static call graph
     limits     Lam & Wilson-style ILP limits for a workload window
     cfg        dump a procedure's CFG (optionally as graphviz)

   Examples:
     polyflow_sim run -w twolf -p postdoms
     polyflow_sim run -w mcf --all-policies --window 30000 --json mcf.json
     polyflow_sim report BENCH_sweep.json
     polyflow_sim spawns -w perlbmk
     polyflow_sim cfg -w twolf --proc new_dbox_a --dot *)

let with_workload name f =
  match Pf_workloads.Suite.find name with
  | Some w -> f w
  | None ->
      `Error (false, Printf.sprintf "unknown workload %S (try `list')" name)

let prepare ?store ?window (w : Pf_workloads.Workload.t) =
  let window =
    match window with Some n -> n | None -> w.Pf_workloads.Workload.window
  in
  Pf_uarch.Run.prepare ?store w.Pf_workloads.Workload.program
    ~setup:w.Pf_workloads.Workload.setup
    ~fast_forward:w.Pf_workloads.Workload.fast_forward ~window

(* ---- run ---- *)

let print_run ~verbose name policy base m =
  let open Pf_uarch in
  Format.printf "%-10s %-22s IPC %.3f" name (Pf_core.Policy.name policy)
    (Metrics.ipc m);
  (match base with
  | Some b when b != m ->
      Format.printf "  speedup %+6.1f%%" (Metrics.speedup_pct ~baseline:b m)
  | _ -> ());
  Format.printf "@.";
  if verbose then Format.printf "%a@." Metrics.pp m

let run_cmd name policy_str all_policies window trace_store_dir
    json_out cpi_stack chrome_out verbose =
  let resolve policy =
    Pf_report.Sweep.resolve (Pf_report.Sweep.spec ?window name policy)
  in
  match resolve Pf_core.Policy.No_spawn with
  | _ when all_policies && chrome_out <> None ->
      `Error (false, "--chrome-trace records one run; drop --all-policies")
  | Error Pf_report.Sweep.Unknown_workload ->
      `Error (false, Printf.sprintf "unknown workload %S (try `list')" name)
  | Error (Pf_report.Sweep.Non_positive_window n) ->
      `Error (false, Printf.sprintf "--window must be positive (got %d)" n)
  | Ok { Pf_report.Sweep.r_workload = w; r_window; _ } ->
      let store =
        Option.map
          (fun dir -> Pf_trace.Trace_store.create ~dir ())
          trace_store_dir
      in
      let t_start = Unix.gettimeofday () in
      let prep = prepare ?store ~window:r_window w in
      let prepare_s = Unix.gettimeofday () -. t_start in
      Format.printf
        "workload %s: %d instructions in window, %d static spawn points \
         (prepared in %.3f s, shared by every policy)@."
        name
        (Pf_trace.Tracer.length prep.Pf_uarch.Run.trace)
        (List.length prep.Pf_uarch.Run.all_spawns)
        prepare_s;
      let records = ref [] in
      let run_one ?base ?(record_trace = false) policy =
        (* the workload and window resolved above, so this cannot fail *)
        let resolved = Result.get_ok (resolve policy) in
        (* observability: attach only the sinks asked for, so a plain
           run still goes through the engine's null-sink fast path *)
        let cpi = if cpi_stack then Some (Pf_obs.Cpi_stack.create ()) else None in
        let chrome =
          if record_trace then Some (Pf_obs.Chrome_trace.create ()) else None
        in
        let sink =
          List.fold_left Pf_obs.Sink.tee Pf_obs.Sink.null
            (List.filter_map Fun.id
               [ Option.map Pf_obs.Cpi_stack.sink cpi;
                 Option.map Pf_obs.Chrome_trace.sink chrome ])
        in
        let run = Pf_report.Sweep.simulate_run ~sink resolved prep in
        let m = run.Pf_report.Sweep.metrics in
        if verbose then
          Format.printf "  %-22s simulate %.3f s@."
            (Pf_core.Policy.name policy) run.Pf_report.Sweep.wall_s;
        records := run :: !records;
        print_run ~verbose name policy base m;
        if verbose && Pf_core.Policy.uses_safety_filter policy then begin
          (* the tracker's story lives in the counter registry, not in
             Metrics: violation rate per 10k retired instructions plus
             the safety filter's per-spawn level decisions *)
          let c n =
            Option.value ~default:0
              (List.assoc_opt n run.Pf_report.Sweep.counters)
          in
          Format.printf
            "mem tracker       violations %d (%.2f per 10k instrs), syncs %d@.\
             safety levels     bypass %d, conservative %d, optimistic %d@."
            (c "mem_violations")
            (float_of_int (c "mem_violations")
            *. 10_000.
            /. float_of_int (max 1 m.Pf_uarch.Metrics.instructions))
            (c "mem_syncs") (c "level_bypass")
            (c "level_conservative")
            (c "level_optimistic")
        end;
        (match cpi with
        | Some c ->
            Format.printf "@[<v>CPI stack, %s / %s (cycles per task slot):@,%a@]@."
              name (Pf_core.Policy.name policy) Pf_obs.Cpi_stack.pp c;
            for s = 0 to Pf_obs.Cpi_stack.slots c - 1 do
              if Pf_obs.Cpi_stack.slot_total c s <> m.Pf_uarch.Metrics.cycles
              then
                Format.printf
                  "WARNING: slot %d accounts for %d of %d cycles@." s
                  (Pf_obs.Cpi_stack.slot_total c s)
                  m.Pf_uarch.Metrics.cycles
            done
        | None -> ());
        (match (chrome, chrome_out) with
        | Some tr, Some path ->
            Pf_obs.Chrome_trace.save tr ~cycles:m.Pf_uarch.Metrics.cycles path;
            Format.printf
              "wrote Chrome trace (%d task spans) to %s — load in \
               ui.perfetto.dev or chrome://tracing@."
              (Pf_obs.Chrome_trace.spans tr) path
        | _ -> ());
        m
      in
      (* --chrome-trace records the requested policy's run; when that is
         the superscalar itself, the baseline run carries the sink *)
      let trace_baseline =
        chrome_out <> None
        && Pf_core.Policy.of_string policy_str = Ok Pf_core.Policy.No_spawn
      in
      let base = run_one ~record_trace:trace_baseline Pf_core.Policy.No_spawn in
      let result =
        if all_policies then begin
          let policies =
            Pf_core.Policy.figure9_policies
            @ [ Pf_core.Policy.Rec_pred; Pf_core.Policy.Dmt;
                Pf_core.Policy.Adaptive; Pf_core.Policy.Doacross ]
            @ List.filter
                (fun p -> p <> Pf_core.Policy.Postdoms)
                Pf_core.Policy.figure10_policies
            @ Pf_core.Policy.figure11_policies
          in
          List.iter (fun p -> ignore (run_one ~base p)) policies;
          `Ok ()
        end
        else
          match Pf_core.Policy.of_string policy_str with
          | Ok Pf_core.Policy.No_spawn -> `Ok () (* already printed *)
          | Ok policy ->
              ignore
                (run_one ~base ~record_trace:(chrome_out <> None) policy);
              `Ok ()
          | Error m -> `Error (false, m)
      in
      (match (result, json_out) with
      | `Ok (), Some path ->
          let doc =
            Pf_report.Sweep.document
              ~tool:(String.concat " " (Array.to_list Sys.argv))
              ~jobs:1
              ~wall_s:(Unix.gettimeofday () -. t_start)
              (List.rev !records)
          in
          Pf_report.Sweep.save path doc;
          Format.printf "wrote %d runs to %s (schema %d)@."
            (List.length doc.Pf_report.Sweep.runs)
            path Pf_report.Manifest.schema_version
      | _ -> ());
      result

(* ---- report ---- *)

let label_set (doc : Pf_report.Sweep.t) =
  List.sort_uniq compare
    (List.map (fun (r : Pf_report.Sweep.run) -> r.Pf_report.Sweep.label)
       doc.Pf_report.Sweep.runs)

let report_cmd path csv_out =
  match Pf_report.Sweep.load path with
  | exception Sys_error m -> `Error (false, m)
  | exception Pf_report.Json.Parse_error (off, m) ->
      `Error (false, Printf.sprintf "%s: JSON syntax error at byte %d: %s" path off m)
  | exception Pf_report.Json.Decode_error m ->
      `Error (false, Printf.sprintf "%s: not a report document: %s" path m)
  | doc ->
      let out = Format.std_formatter in
      Format.fprintf out "%s: %a@." path Pf_report.Manifest.pp
        doc.Pf_report.Sweep.manifest;
      let workloads = Pf_report.Table.workloads doc in
      let labels = label_set doc in
      Format.fprintf out "%d runs · %d workloads · %d labels@.@."
        (List.length doc.Pf_report.Sweep.runs)
        (List.length workloads) (List.length labels);
      let have label = List.mem label labels in
      let figure title policies =
        let wanted = List.map Pf_core.Policy.name policies in
        if List.for_all have wanted
           && List.exists (fun l -> l <> Pf_report.Table.baseline_label) wanted
        then begin
          Format.fprintf out "%s@." title;
          Pf_report.Table.print_speedup_table ~out ~workloads ~labels:wanted doc;
          Format.fprintf out "@."
        end
      in
      if have Pf_report.Table.baseline_label then begin
        figure
          "Figure 9: Individual heuristic policies (speedup over the \
           superscalar)"
          Pf_core.Policy.figure9_policies;
        figure "Figure 10: Combinations of heuristics"
          Pf_core.Policy.figure10_policies;
        figure "Figure 12: Reconvergence-predictor spawning"
          Pf_core.Policy.figure12_policies;
        Format.fprintf out "All labels, average speedup over the superscalar:@.";
        Pf_report.Table.print_average_table ~out doc
      end
      else
        Format.fprintf out
          "(no %S runs in the document — speedup tables unavailable)@."
          Pf_report.Table.baseline_label;
      (match csv_out with
      | Some csv_path ->
          let oc = open_out csv_path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc (Pf_report.Sweep.to_csv doc));
          Format.fprintf out "@.wrote CSV to %s@." csv_path
      | None -> ());
      `Ok ()

(* ---- list ---- *)

let list_cmd () =
  Format.printf "@[<v>Workloads:@,";
  List.iter
    (fun w ->
      Format.printf "  %-10s %s@," w.Pf_workloads.Workload.name
        w.Pf_workloads.Workload.description)
    (Pf_workloads.Suite.all ());
  Format.printf "@]%!";
  `Ok ()

(* ---- disasm ---- *)

let disasm_cmd workload_name =
  with_workload workload_name (fun w ->
      Format.printf "%a@." Pf_isa.Program.pp w.Pf_workloads.Workload.program;
      `Ok ())

(* ---- spawns ---- *)

let spawns_cmd workload_name =
  with_workload workload_name (fun w ->
      let program = w.Pf_workloads.Workload.program in
      let spawns = Pf_core.Classify.spawn_points program in
      List.iter
        (fun s ->
          Format.printf "  %-30s (at: %s)@."
            (Format.asprintf "%a" Pf_core.Spawn_point.pp s)
            (Pf_isa.Instr.to_string
               (Pf_isa.Program.fetch program s.Pf_core.Spawn_point.at_pc)))
        spawns;
      Format.printf "@.%a@."
        Pf_core.Static_stats.pp
        (Pf_core.Static_stats.of_spawns spawns);
      `Ok ())

(* ---- callgraph ---- *)

let callgraph_cmd workload_name =
  with_workload workload_name (fun w ->
      Format.printf "%a@." Pf_isa.Call_graph.pp
        (Pf_isa.Call_graph.build w.Pf_workloads.Workload.program);
      `Ok ())

(* ---- limits ---- *)

let limits_cmd workload_name window =
  with_workload workload_name (fun w ->
      let prep = prepare ?window w in
      let tr = prep.Pf_uarch.Run.trace in
      let sf = Pf_trace.Limits.single_flow_ipc tr in
      let df = Pf_trace.Limits.dataflow_ipc tr in
      Format.printf
        "%s: single-flow limit %.2f IPC, control-independence oracle %.2f IPC \
         (%.1fx)@."
        w.Pf_workloads.Workload.name sf df (df /. sf);
      `Ok ())

(* ---- cfg ---- *)

let cfg_cmd workload_name proc_name dot =
  with_workload workload_name (fun w ->
      let program = w.Pf_workloads.Workload.program in
      let pcfgs = Pf_isa.Cfg_build.build_all program in
      let chosen =
        match proc_name with
        | Some n ->
            List.filter
              (fun p -> p.Pf_isa.Cfg_build.proc.Pf_isa.Program.name = n)
              pcfgs
        | None -> pcfgs
      in
      if chosen = [] then
        `Error (false, Printf.sprintf "no such procedure %S" (Option.value proc_name ~default:""))
      else begin
        List.iter
          (fun p ->
            let label b =
              let info = p.Pf_isa.Cfg_build.blocks.(b) in
              if info.Pf_isa.Cfg_build.first_pc < 0 then "exit"
              else Printf.sprintf "%x..%x" info.Pf_isa.Cfg_build.first_pc
                     info.Pf_isa.Cfg_build.last_pc
            in
            Format.printf "== %s ==@." p.Pf_isa.Cfg_build.proc.Pf_isa.Program.name;
            if dot then Format.printf "%a@." (Pf_cfg.Dot.cfg ~label) p.Pf_isa.Cfg_build.cfg
            else Format.printf "%a@." Pf_cfg.Cfg.pp p.Pf_isa.Cfg_build.cfg)
          chosen;
        `Ok ()
      end)

(* ---- parse: reassemble a textual listing ---- *)

let parse_cmd path =
  let text =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Pf_isa.Parse.program_of_string text with
  | Ok p ->
      Format.printf
        "parsed %d instructions, %d procedures; entry %04x@."
        (Pf_isa.Program.length p)
        (List.length p.Pf_isa.Program.procs)
        p.Pf_isa.Program.entry_pc;
      let spawns = Pf_core.Classify.spawn_points p in
      Format.printf "%d spawn points: %a@." (List.length spawns)
        Pf_core.Static_stats.pp
        (Pf_core.Static_stats.of_spawns spawns);
      `Ok ()
  | Error e -> `Error (false, e)

(* ---- cmdliner wiring ---- *)

open Cmdliner

let workload_t =
  Arg.(
    value
    & opt string "twolf"
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to operate on.")

let window_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "window" ] ~docv:"N" ~doc:"Override the simulation window size.")

let run_c =
  let policy_t =
    Arg.(
      value
      & opt string "postdoms"
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:
            "Spawn policy: superscalar, loop, loopFT, procFT, hammock, other, \
             postdoms, rec_pred, dmt, adaptive, postdoms-<category>, or a + \
             combination.")
  in
  let all_policies_t =
    Arg.(
      value & flag
      & info [ "all-policies" ] ~doc:"Run every policy of Figures 9-12.")
  in
  let verbose_t =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print full metrics.")
  in
  let json_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also save the runs as a schema-versioned report document \
             (docs/REPORT_SCHEMA.md), renderable with the $(b,report) \
             subcommand.")
  in
  let cpi_t =
    Arg.(
      value & flag
      & info [ "cpi-stack" ]
          ~doc:
            "Attach the cycle-accounting sink and print a CPI-stack table \
             per run: every cycle of every task slot attributed to one loss \
             source (docs/OBSERVABILITY.md).")
  in
  let chrome_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Record the requested policy's run as a Chrome/Perfetto \
             trace_event JSON file: one track per task slot, flow arrows \
             for spawns, instants for squashes. Open in ui.perfetto.dev or \
             chrome://tracing. Incompatible with $(b,--all-policies).")
  in
  let trace_store_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-store" ] ~docv:"DIR"
          ~doc:
            "Prepare the window through a persistent trace store in              $(docv) (created on demand): repeat invocations load the              captured window from disk instead of re-interpreting the              fast-forward prefix. Results are byte-identical either way.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a workload under spawn policies")
    Term.(
      ret (const run_cmd $ workload_t $ policy_t $ all_policies_t $ window_t
           $ trace_store_t $ json_t $ cpi_t $ chrome_t $ verbose_t))

let report_c =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Report document (BENCH_*.json).")
  in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also export every run as CSV.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render Figure-9/10/12-style tables from a saved report document")
    Term.(ret (const report_cmd $ file_t $ csv_t))

let list_c =
  Cmd.v (Cmd.info "list" ~doc:"List workloads") Term.(ret (const list_cmd $ const ()))

let disasm_c =
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a workload binary")
    Term.(ret (const disasm_cmd $ workload_t))

let spawns_c =
  Cmd.v
    (Cmd.info "spawns" ~doc:"Show classified spawn points (Figure 5 data)")
    Term.(ret (const spawns_cmd $ workload_t))

let callgraph_c =
  Cmd.v
    (Cmd.info "callgraph" ~doc:"Print the static call graph")
    Term.(ret (const callgraph_cmd $ workload_t))

let limits_c =
  Cmd.v
    (Cmd.info "limits" ~doc:"Lam & Wilson-style ILP limits")
    Term.(ret (const limits_cmd $ workload_t $ window_t))

let cfg_c =
  let proc_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "proc" ] ~docv:"NAME" ~doc:"Restrict to one procedure.")
  in
  let dot_t = Arg.(value & flag & info [ "dot" ] ~doc:"Emit graphviz.") in
  Cmd.v
    (Cmd.info "cfg" ~doc:"Dump per-procedure control flow graphs")
    Term.(ret (const cfg_cmd $ workload_t $ proc_t $ dot_t))

let parse_c =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Assembly listing (disasm output format).")
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse an assembly listing and analyse it")
    Term.(ret (const parse_cmd $ file_t))

let main_cmd =
  let doc = "PolyFlow speculative-parallelization simulator and tooling" in
  Cmd.group
    ~default:Term.(ret (const list_cmd $ const ()))
    (Cmd.info "polyflow_sim" ~doc)
    [ run_c; report_c; list_c; disasm_c; spawns_c; callgraph_c; limits_c;
      cfg_c; parse_c ]

let () = exit (Cmd.eval main_cmd)
