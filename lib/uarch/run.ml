type prepared = {
  program : Pf_isa.Program.t;
  trace : Pf_trace.Tracer.t;
  flat : Pf_trace.Flat_trace.t;
  occurrence : Pf_trace.Occurrence.t;
  all_spawns : Pf_core.Spawn_point.t list;
}

let prepare ?store program ~setup ~fast_forward ~window =
  let trace =
    match store with
    | None ->
        let machine = Pf_isa.Machine.create program in
        setup machine;
        let trace = Pf_trace.Tracer.capture machine ~fast_forward ~window in
        if Pf_trace.Tracer.length trace > 0 then
          Pf_trace.Depinfo.compute trace;
        trace
    | Some store ->
        (* store hits and misses both return the window with producer
           indices already filled *)
        Pf_trace.Trace_store.prepare store program ~setup ~fast_forward
          ~window
  in
  if Pf_trace.Tracer.length trace = 0 then
    invalid_arg "Run.prepare: empty window (program halted during fast-forward?)";
  (* flatten once, after the dependence pass: the SoA arrays are
     immutable from here on and shared by every policy simulated against
     this window, including concurrently on other domains *)
  let flat = Pf_trace.Flat_trace.of_trace trace in
  let occurrence = Pf_trace.Occurrence.build trace in
  let all_spawns = Pf_core.Classify.spawn_points program in
  { program; trace; flat; occurrence; all_spawns }

(* build one engine input against the shared prepared window *)
let to_input ~sink ~counters ~config prepared ~policy =
  let config =
    match config with Some c -> c | None -> Config.for_policy policy
  in
  let selected = Pf_core.Policy.select policy prepared.all_spawns in
  let safety =
    if Pf_core.Policy.uses_safety_filter policy then
      Some
        (Pf_core.Safety_filter.of_spawns prepared.program selected
           ~store_pct:config.Config.safety_store_pct
           ~branch_pct:config.Config.safety_branch_pct
           ~serial_ops:config.Config.safety_serial_ops)
    else None
  in
  { Engine.config;
    trace = prepared.trace;
    flat = prepared.flat;
    occurrence = prepared.occurrence;
    hints = Pf_core.Hint_cache.of_spawns selected;
    use_rec_pred = Pf_core.Policy.uses_reconvergence_predictor policy;
    use_dmt = Pf_core.Policy.uses_dmt_heuristics policy;
    use_doacross = Pf_core.Policy.uses_doacross_sync policy;
    safety;
    sink;
    counters }

let simulate ?(sink = Pf_obs.Sink.null) ?counters ?config prepared ~policy =
  Engine.simulate (to_input ~sink ~counters ~config prepared ~policy)

type batch_run = {
  br_policy : Pf_core.Policy.t;
  br_config : Config.t option;
  br_sink : Pf_obs.Sink.t;
  br_counters : Pf_obs.Counters.t option;
}

let batch_run ?(sink = Pf_obs.Sink.null) ?counters ?config policy =
  { br_policy = policy;
    br_config = config;
    br_sink = sink;
    br_counters = counters }

let simulate_batch prepared runs =
  List.map
    (fun b ->
      Engine.simulate
        (to_input ~sink:b.br_sink ~counters:b.br_counters ~config:b.br_config
           prepared ~policy:b.br_policy))
    runs

let baseline prepared = simulate prepared ~policy:Pf_core.Policy.No_spawn
