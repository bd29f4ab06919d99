(* The attribution pass of a traced run: per-call costs of each layer's
   public functions, measured on the workload's own windows and specs.
   It runs after the traced replay and outside the overhead comparison,
   and it fills the per-layer rows the replay cannot see from outside a
   single Run.prepare or Run.simulate call: the prepare sub-phases, solo
   ns/instr per policy class, lockstep-batch gain, cache probe and store
   costs, and the serve layer's dispatch and codec. *)

open Pf_uarch
module B = Pf_bench_support.Bench_support
module Json = Pf_json.Json
module Sweep = Pf_report.Sweep
module Run_cache = Pf_report.Run_cache
module Policy = Pf_core.Policy
module Trace_store = Pf_trace.Trace_store
module Protocol = Pf_serve.Protocol
module Server = Pf_serve.Server

let ms s = 1000. *. s
let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
let sum = List.fold_left ( +. ) 0.

(* an evenly spaced sample of at most [k] elements, order kept *)
let sample k l =
  let a = Array.of_list l in
  let n = Array.length a in
  if n <= k then l else List.init k (fun i -> a.(i * n / k))

let distinct_windows specs =
  List.fold_left
    (fun acc (s : Sweep.spec) ->
      let k = (s.Sweep.workload, Grid.window_of s) in
      if List.mem k acc then acc else acc @ [ k ])
    [] specs

let workload name = Option.get (Pf_workloads.Suite.find name)

(* ---- prepare: every public step of Run.prepare and the store ---- *)

type prep_row = {
  machine : float; fastforward : float; capture : float; depinfo : float;
  store_key : float; store_miss : float; store_hit : float;
  flatten : float; occurrence : float; classify : float;
  prep_words : float; instrs : int;
}

(* every timing below is the fastest of [repeats]: the one least
   disturbed by other load on the machine *)
let repeats = 3
let fastest f = List.fold_left min infinity (List.init repeats (fun _ -> f ()))

let prepare_once ~work ~program ~setup ~fast_forward ~window =
  let m, machine =
    B.time (fun () ->
        let m = Pf_isa.Machine.create program in
        setup m;
        m)
  in
  let _, fastforward = B.time (fun () -> Pf_isa.Machine.skip m fast_forward) in
  let trace, capture =
    B.time (fun () ->
        Pf_trace.Tracer.capture_window m ~window
          ~fast_forwarded:(Pf_isa.Machine.icount m))
  in
  let (), depinfo = B.time (fun () -> Pf_trace.Depinfo.compute trace) in
  let dir = B.temp_dir ~base:work "tstore" in
  let store = Trace_store.create ~dir () in
  let prepare_store () = Trace_store.prepare store program ~setup ~fast_forward ~window in
  let _, store_key =
    B.time (fun () -> Trace_store.digest store program ~setup ~fast_forward ~window)
  in
  let _, store_miss = B.time prepare_store in
  let _, store_hit = B.time prepare_store in
  let _, flatten = B.time (fun () -> Pf_trace.Flat_trace.of_trace trace) in
  let _, occurrence = B.time (fun () -> Pf_trace.Occurrence.build trace) in
  let _, classify = B.time (fun () -> Pf_core.Classify.spawn_points program) in
  let prep, prep_words =
    B.alloc_words (fun () -> Run.prepare ~store program ~setup ~fast_forward ~window)
  in
  B.rm_rf dir;
  ( { machine; fastforward; capture; depinfo; store_key; store_miss; store_hit;
      flatten; occurrence; classify; prep_words;
      instrs = Pf_trace.Tracer.length prep.Run.trace },
    prep )

let prepare_row ~work (name, window) =
  let wl = workload name in
  let once () =
    prepare_once ~work ~program:wl.Pf_workloads.Workload.program
      ~setup:wl.Pf_workloads.Workload.setup
      ~fast_forward:wl.Pf_workloads.Workload.fast_forward ~window
  in
  let first, prep = once () in
  let row =
    List.fold_left
      (fun a (b, _) ->
        { a with
          machine = min a.machine b.machine;
          fastforward = min a.fastforward b.fastforward;
          capture = min a.capture b.capture;
          depinfo = min a.depinfo b.depinfo;
          store_key = min a.store_key b.store_key;
          store_miss = min a.store_miss b.store_miss;
          store_hit = min a.store_hit b.store_hit;
          flatten = min a.flatten b.flatten;
          occurrence = min a.occurrence b.occurrence;
          classify = min a.classify b.classify })
      first
      (List.init (repeats - 1) (fun _ -> once ()))
  in
  (row, ((name, window), prep))

(* ---- simulate ---- *)

let policy_classes = Policy.[ No_spawn; Postdoms; Rec_pred; Dmt; Adaptive; Doacross ]

let solo_rows preps =
  List.map
    (fun policy ->
      let rows =
        List.map
          (fun (_, prep) ->
            let m, words = B.alloc_words (fun () -> Run.simulate prep ~policy) in
            let dt = fastest (fun () -> snd (B.time (fun () -> Run.simulate prep ~policy))) in
            (dt, m.Metrics.instructions, m.Metrics.cycles, words))
          preps
      in
      (policy, rows))
    policy_classes

(* the workload's own specs on one window, as one lockstep batch and as
   the same members simulated solo *)
let batch_row specs ((key, prep) : (string * int) * Run.prepared) =
  let members =
    List.filteri
      (fun i _ -> i < Replay.max_batch)
      (List.filter
         (fun (s : Sweep.spec) -> (s.Sweep.workload, Grid.window_of s) = key)
         specs)
  in
  let batch_run (s : Sweep.spec) =
    Run.batch_run ~config:(Sweep.resolve_config s) s.Sweep.policy
  in
  let batch =
    fastest (fun () ->
        snd (B.time (fun () -> Run.simulate_batch prep (List.map batch_run members))))
  in
  let solo =
    sum
      (List.map
         (fun (s : Sweep.spec) ->
           fastest (fun () ->
               snd
                 (B.time (fun () ->
                      Run.simulate ~config:(Sweep.resolve_config s) prep
                        ~policy:s.Sweep.policy))))
         members)
  in
  (batch, solo, List.length members * Pf_trace.Tracer.length prep.Run.trace)

(* Policy.select + Hint_cache.of_spawns (+ Safety_filter.of_spawns for
   the tracker policies): the per-run input Run.simulate builds *)
let input_cost preps specs =
  let reps = 20 in
  List.filter_map
    (fun (s : Sweep.spec) ->
      match List.assoc_opt (s.Sweep.workload, Grid.window_of s) preps with
      | None -> None
      | Some prep ->
          let config = Sweep.resolve_config s in
          let _, dt =
            B.time (fun () ->
                for _ = 1 to reps do
                  let selected = Policy.select s.Sweep.policy prep.Run.all_spawns in
                  ignore (Pf_core.Hint_cache.of_spawns selected);
                  if Policy.uses_safety_filter s.Sweep.policy then
                    ignore
                      (Pf_core.Safety_filter.of_spawns prep.Run.program selected
                         ~store_pct:config.Config.safety_store_pct
                         ~branch_pct:config.Config.safety_branch_pct
                         ~serial_ops:config.Config.safety_serial_ops)
                done)
          in
          Some (dt /. float_of_int reps))
    specs

(* ---- sweep: run-cache store and find+decode ---- *)

let cache_costs ~work (runs : Sweep.run list) =
  let dir = B.temp_dir ~base:work "cache" in
  let cache = Run_cache.create ~dir () in
  let digest (r : Sweep.run) =
    Run_cache.digest ~workload:r.Sweep.workload ~window:r.Sweep.window
      ~fast_forward:(workload r.Sweep.workload).Pf_workloads.Workload.fast_forward
      ~policy:r.Sweep.policy ~label:r.Sweep.label ~config:r.Sweep.config
  in
  let stores =
    List.map
      (fun r ->
        let d = digest r in
        snd (B.time (fun () -> Run_cache.store cache ~digest:d (Sweep.run_to_json r))))
      runs
  in
  let finds =
    List.map
      (fun r ->
        let d = digest r in
        snd
          (B.time (fun () ->
               ignore (Sweep.run_of_json (Option.get (Run_cache.find cache ~digest:d))))))
      runs
  in
  B.rm_rf dir;
  (mean stores, mean finds)

(* ---- serve: an in-process daemon over the workload's sample specs ---- *)

type probe = {
  miss_ms : float list;
  hit_ms : float list;
  server_ms : float list;
  wire_ms : float list;
  dispatch_hit_ms : float list;
  codec_us : float;
  counters : Json.t;
}

let request_of_spec i (s : Sweep.spec) =
  Protocol.Run
    { Protocol.id = Json.Int i;
      workload = s.Sweep.workload;
      policy = Policy.name s.Sweep.policy;
      label = Some s.Sweep.label;
      window = Some (Grid.window_of s);
      config = Option.map Pf_report.Codec.config_to_json s.Sweep.config;
      timeout_ms = None;
      no_cache = false }

let serve_probe ~work ~jobs specs =
  let dir = B.temp_dir ~base:work "serve" in
  let server =
    Server.start
      { (Server.default_config ~socket_path:(Filename.concat dir "s.sock")) with
        Server.jobs;
        cache_dir = Some (Filename.concat dir "cache");
        trace_store_dir = Some (Filename.concat dir "tstore") }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      B.rm_rf dir)
    (fun () ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX (Filename.concat dir "s.sock"));
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      let reqs = List.mapi request_of_spec specs in
      let lines = List.map (fun r -> Json.to_string (Protocol.request_to_json r)) reqs in
      let rpc line =
        let reply, dt =
          B.time (fun () ->
              output_string oc line;
              output_char oc '\n';
              flush oc;
              input_line ic)
        in
        let wall_ms = Json.to_float (Json.member "wall_ms" (Json.of_string reply)) in
        (ms dt, wall_ms)
      in
      let misses = List.map rpc lines in
      let hits = List.concat (List.init 3 (fun _ -> List.map rpc lines)) in
      close_in_noerr ic;
      let dispatches =
        List.init 3 (fun _ -> List.map (fun r -> B.time (fun () -> Server.dispatch server r)) reqs)
      in
      let replies = List.map fst (List.hd dispatches) in
      let codec_reps = 50 in
      let codec =
        fastest (fun () ->
            snd
              (B.time (fun () ->
                   for _ = 1 to codec_reps do
                     List.iter2
                       (fun line resp ->
                         ignore (Protocol.request_of_line line);
                         ignore (Json.to_string (Protocol.response_to_json resp)))
                       lines replies
                   done)))
      in
      let counters =
        match Server.dispatch server (Protocol.Stats Json.Null) with
        | Protocol.Stats_reply { stats; _ } -> Json.member "counters" stats
        | _ -> Json.Null
      in
      { miss_ms = List.map fst misses;
        hit_ms = List.map fst hits;
        server_ms = List.map snd (misses @ hits);
        wire_ms = List.map (fun (c, s) -> c -. s) hits;
        dispatch_hit_ms = List.map (fun (_, dt) -> ms dt) (List.concat dispatches);
        codec_us = 1e6 *. codec /. float_of_int (codec_reps * List.length lines);
        counters })

let counter json name =
  match Json.member_opt name json with Some v -> float_of_int (Json.to_int v) | None -> 0.

(* a / b, 0 when nothing was counted *)
let ratio a b = if b <= 0. then 0. else a /. b

let p50 = B.median
let p99 l = B.percentile (Array.of_list (List.sort compare l)) 99.

(* serve-layer rows of a probe; serve-mixed replaces the latency rows
   with its open loop's *)
let probe_rows p =
  [ ("serve.hit_p50_ms", p50 p.hit_ms);
    ("serve.hit_p99_ms", p99 p.hit_ms);
    ("serve.miss_p50_ms", p50 p.miss_ms);
    ("serve.miss_p99_ms", p99 p.miss_ms);
    ("serve.server_p50_ms", p50 p.server_ms);
    ("serve.wire_p50_ms", p50 p.wire_ms);
    ("serve.dispatch_hit_p50_ms", p50 p.dispatch_hit_ms);
    ("serve.codec_us", p.codec_us);
    ( "serve.batched_frac",
      ratio (counter p.counters "batched_runs") (counter p.counters "simulations") );
    ( "serve.prep_reuse_frac",
      ratio
        (counter p.counters "prep_reuses")
        (counter p.counters "prep_reuses" +. counter p.counters "prep_builds") ) ]

(* ---- results-derived rows (exact: they repeat bit for bit) ---- *)

let model_rows (runs : Sweep.run list) =
  let instrs = List.fold_left (fun a (r : Sweep.run) -> a + r.Sweep.metrics.Metrics.instructions) 0 runs in
  let squashed = List.fold_left (fun a (r : Sweep.run) -> a + r.Sweep.metrics.Metrics.squashed_instrs) 0 runs in
  let find w win label =
    List.find_opt
      (fun (r : Sweep.run) -> r.Sweep.workload = w && r.Sweep.window = win && r.Sweep.label = label)
      runs
  in
  let speedups =
    List.filter_map
      (fun (r : Sweep.run) ->
        if r.Sweep.label <> "postdoms" then None
        else
          Option.map
            (fun (b : Sweep.run) -> Metrics.speedup_pct ~baseline:b.Sweep.metrics r.Sweep.metrics)
            (find r.Sweep.workload r.Sweep.window "superscalar"))
      runs
  in
  [ ("simulate.refetch_ratio", ratio (float_of_int squashed) (float_of_int instrs));
    ("model.postdoms_speedup_pct", mean speedups) ]

(* ---- the pass ---- *)

let max_windows = 8
let sim_windows = 3
let max_specs = 64
let probe_specs = 12

let run ~work ~jobs ~(specs : Sweep.spec list) ~(runs : Sweep.run list) =
  let windows = sample max_windows (distinct_windows specs) in
  let rows, preps = List.split (List.map (prepare_row ~work) windows) in
  let per_window f = ms (mean (List.map f rows)) in
  let sim_preps = List.filteri (fun i _ -> i < sim_windows) preps in
  let solos = solo_rows sim_preps in
  let all_solo = List.concat_map snd solos in
  let tot f = sum (List.map f all_solo) in
  let sim_wall = tot (fun (dt, _, _, _) -> dt)
  and sim_instr = tot (fun (_, n, _, _) -> float_of_int n)
  and sim_cycles = tot (fun (_, _, c, _) -> float_of_int c)
  and sim_words = tot (fun (_, _, _, w) -> w) in
  let batches = List.map (batch_row specs) sim_preps in
  let batch_wall = sum (List.map (fun (b, _, _) -> b) batches)
  and solo_wall = sum (List.map (fun (_, s, _) -> s) batches)
  and batch_instr = sum (List.map (fun (_, _, n) -> float_of_int n) batches) in
  let inputs =
    input_cost sim_preps
      (sample max_specs
         (List.filter
            (fun (s : Sweep.spec) -> List.mem_assoc (s.Sweep.workload, Grid.window_of s) sim_preps)
            specs))
  in
  let store_s, find_s = cache_costs ~work (sample max_specs runs) in
  let probe =
    serve_probe ~work ~jobs
      (sample probe_specs
         (List.filter
            (fun (s : Sweep.spec) ->
              List.mem (s.Sweep.workload, Grid.window_of s)
                (List.filteri (fun i _ -> i < 2) windows))
            specs))
  in
  [ ("prepare.windows", float_of_int (List.length (distinct_windows specs)));
    ("prepare.machine_ms", per_window (fun r -> r.machine));
    ("prepare.fastforward_ms", per_window (fun r -> r.fastforward));
    ("prepare.capture_ms", per_window (fun r -> r.capture));
    ("prepare.depinfo_ms", per_window (fun r -> r.depinfo));
    ("prepare.store_key_ms", per_window (fun r -> r.store_key));
    ("prepare.store_hit_ms", per_window (fun r -> r.store_hit));
    ("prepare.store_miss_ms", per_window (fun r -> r.store_miss));
    ("prepare.flatten_ms", per_window (fun r -> r.flatten));
    ("prepare.occurrence_ms", per_window (fun r -> r.occurrence));
    ("prepare.classify_ms", per_window (fun r -> r.classify));
    ( "prepare.alloc_words_per_instr",
      ratio (sum (List.map (fun r -> r.prep_words) rows))
        (float_of_int (List.fold_left (fun a r -> a + r.instrs) 0 rows)) ) ]
  @ List.map
      (fun (policy, rs) ->
        ( "simulate.ns_per_instr." ^ Policy.name policy,
          1e9
          *. ratio
               (sum (List.map (fun (dt, _, _, _) -> dt) rs))
               (sum (List.map (fun (_, n, _, _) -> float_of_int n) rs)) ))
      solos
  @ [ ("simulate.batch_ns_per_instr", 1e9 *. ratio batch_wall batch_instr);
      ("simulate.batch_speedup", ratio solo_wall batch_wall);
      ("simulate.alloc_words_per_instr", ratio sim_words sim_instr);
      ("simulate.ns_per_cycle", 1e9 *. ratio sim_wall sim_cycles);
      ("simulate.input_us", 1e6 *. mean inputs) ]
  @ model_rows runs
  @ [ ("sweep.cache_find_ms", ms find_s); ("sweep.cache_store_ms", ms store_s) ]
  @ probe_rows probe
