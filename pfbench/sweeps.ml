(* The three sweep workloads. Each timed repetition is a fresh child
   process — this executable's [child] mode running one Sweep.execute —
   timed from spawn to exit, which is what a user regenerating a figure
   pays. The child reports its own set-up (spawn to the first
   Sweep.execute call), its peak RSS and one digest per run. *)

module B = Pf_bench_support.Bench_support
module Json = Pf_json.Json
module Sweep = Pf_report.Sweep
module Run_cache = Pf_report.Run_cache
module Trace_store = Pf_trace.Trace_store

type t = {
  name : string;
  set : string;   (* spec set: "figure" or "memspec" *)
  warm : bool;    (* reuse the stores set-up filled, instead of fresh ones *)
}

let figure_cold = { name = "figure-cold"; set = "figure"; warm = false }
let figure_warm = { name = "figure-warm"; set = "figure"; warm = true }
let memspec_cold = { name = "memspec-cold"; set = "memspec"; warm = false }

(* a median needs a few repetitions even when [seconds] is short *)
let min_reps = 3

(* Set-up-only children run before every timed repetition, so the
   set-up median rests on more samples than the few cold repetitions
   give, taken across the whole run: set-up is mostly process start
   and module initialisation, whose speed on a shared host drifts over
   seconds, and samples taken back to back would all see one moment. *)
let setups_per_rep = 3

let specs ~set ?window () =
  match set with
  | "figure" -> Grid.figure ?window ()
  | "memspec" -> Grid.memspec ?window ()
  | s -> invalid_arg ("unknown spec set " ^ s)

(* a repetition's spec order: reordering never changes a result, only
   window first-use order and batch grouping *)
let permuted ~set ?window ~seed ~rep () =
  Grid.shuffle (Random.State.make [| seed; rep |]) (specs ~set ?window ())

let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (B.read_file path))
  with
  | Some l -> Scanf.sscanf l "VmHWM: %d" Fun.id
  | None -> 0
  | exception Sys_error _ -> 0

(* ---- child mode ---- *)

(* one Sweep.execute with its report fields *)
let execute ~cache ~trace_store ~jobs specs =
  let stats = ref None in
  let (runs, _), exec_s =
    B.time (fun () ->
        Sweep.execute ~cache ~trace_store ~on_stats:(fun s -> stats := Some s) ~jobs specs)
  in
  let s = Option.get !stats in
  let sim_instr =
    if s.Sweep.cached_runs = 0 then
      List.fold_left (fun a (r : Sweep.run) -> a + r.Sweep.instructions) 0 runs
    else 0
  in
  [ ("exec_s", Json.Float exec_s);
    ("cached", Json.Int s.Sweep.cached_runs);
    ("simulated", Json.Int s.Sweep.simulated_runs);
    ("batched", Json.Int s.Sweep.batched_runs);
    ("batches", Json.Int s.Sweep.batch_count);
    ("prepare_ms", Json.Float s.Sweep.prepare_ms);
    ("sim_instr", Json.Int sim_instr);
    ("rss_kb", Json.Int (vm_hwm_kb "self"));
    ( "digests",
      Json.List
        (List.map
           (fun r -> Json.List [ Json.String (Check.run_key r); Json.String (Check.run_digest r) ])
           runs) ) ]

(* [setup_only] stops at the first Sweep.execute call: a set-up sample *)
let child ~set ~window ~seed ~rep ~cache_dir ~tstore_dir ~t0 ~jobs ~setup_only ~out =
  let specs = permuted ~set ?window ~seed ~rep () in
  let cache = Run_cache.create ~dir:cache_dir () in
  let trace_store = Trace_store.create ~dir:tstore_dir () in
  let setup = ("setup_s", Json.Float (Unix.gettimeofday () -. t0)) in
  B.save out
    (Json.Obj
       (if setup_only then [ setup ] else setup :: execute ~cache ~trace_store ~jobs specs))

(* ---- parent side ---- *)

type rep = {
  wall_s : float;
  setup_s : float;
  cpu_s : float;
  rss_kb : int;
  exec_s : float;
  sim_instr : int;
  doc : Json.t;
  digests : (string * string) list;
}

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Runs this executable in child mode and reads its report: None if
   it failed. Wall and CPU time run from spawn to exit. *)
let run_child ~work ~set ~window ~seed ~rep ~cache_dir ~tstore_dir ~jobs extra =
  let out = Filename.concat work (Printf.sprintf "child%d.json" rep) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let cpu0 = children_cpu () in
  let t0 = Unix.gettimeofday () in
  let args =
    [ "child"; "--set"; set; "--seed"; string_of_int seed; "--rep"; string_of_int rep;
      "--cache"; cache_dir; "--tstore"; tstore_dir; "--jobs"; string_of_int jobs;
      "--t0"; Printf.sprintf "%.6f" t0; "--out"; out ]
    @ (match window with Some w -> [ "--window"; string_of_int w ] | None -> [])
    @ extra
  in
  let pid =
    B.spawn Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin devnull Unix.stderr
  in
  let status = B.reap pid in
  let wall_s = Unix.gettimeofday () -. t0 in
  Unix.close devnull;
  let cpu_s = children_cpu () -. cpu0 in
  match status with
  | Some (Unix.WEXITED 0) ->
      let doc = Json.of_string (B.read_file out) in
      Sys.remove out;
      Some (doc, wall_s, cpu_s)
  | _ -> None

(* one repetition *)
let spawn_rep ~work ~set ~window ~seed ~rep ~cache_dir ~tstore_dir ~jobs =
  Option.map
    (fun (doc, wall_s, cpu_s) ->
      let f k = Json.to_float (Json.member k doc) and i k = Json.to_int (Json.member k doc) in
      { wall_s; cpu_s;
        setup_s = f "setup_s";
        exec_s = f "exec_s";
        rss_kb = i "rss_kb";
        sim_instr = i "sim_instr";
        doc;
        digests =
          List.map
            (fun p ->
              match Json.to_list p with
              | [ k; d ] -> (Json.to_str k, Json.to_str d)
              | _ -> ("", ""))
            (Json.to_list (Json.member "digests" doc)) })
    (run_child ~work ~set ~window ~seed ~rep ~cache_dir ~tstore_dir ~jobs [])

(* [check] counts the mismatching (key, digest) pairs: against the
   committed digests, or at smoke scale against a reference simulation *)
type checker = (string * string) list -> int

(* a scratch directory holding a run cache and a trace store *)
let fresh_stores ~work =
  let d = B.temp_dir ~base:work "stores" in
  (d, Filename.concat d "cache", Filename.concat d "tstore")

(* Every pass over the specs is checked, and a child that fails fails
   all of them. The warm workload's set-up is one cold repetition
   filling the stores that every later pass reuses. *)
type harness = {
  rep : rep:int -> cache_dir:string -> tstore_dir:string -> rep option;
  checked : (string * string) list -> unit;
  shared : (string * string * string) option;
  fill : rep option;
  attempted : int ref;
  failed : int ref;
}

let harness ~work ~jobs ~seed ?window ~(check : checker) w =
  let nspecs = List.length (specs ~set:w.set ?window ()) in
  let attempted = ref 0 and failed = ref 0 in
  let checked pairs =
    attempted := !attempted + nspecs;
    failed := !failed + check pairs + max 0 (nspecs - List.length pairs)
  in
  let rep ~rep ~cache_dir ~tstore_dir =
    let r = spawn_rep ~work ~set:w.set ~window ~seed ~rep ~cache_dir ~tstore_dir ~jobs in
    checked (match r with Some r -> r.digests | None -> []);
    r
  in
  let shared = if w.warm then Some (fresh_stores ~work) else None in
  let fill =
    Option.bind shared (fun (_, cache_dir, tstore_dir) -> rep ~rep:0 ~cache_dir ~tstore_dir)
  in
  { rep; checked; shared; fill; attempted; failed }

let untraced ~work ~jobs ~seed ~seconds ?window ~check w =
  let h = harness ~work ~jobs ~seed ?window ~check w in
  let with_stores f =
    let d, cache_dir, tstore_dir = match h.shared with Some s -> s | None -> fresh_stores ~work in
    let r = f ~cache_dir ~tstore_dir in
    if h.shared = None then B.rm_rf d;
    r
  in
  let setup_sample ~rep ~cache_dir ~tstore_dir =
    Option.map
      (fun (doc, _, _) -> Json.to_float (Json.member "setup_s" doc))
      (run_child ~work ~set:w.set ~window ~seed ~rep ~cache_dir ~tstore_dir ~jobs
         [ "--setup-only" ])
  in
  let smoke = seconds <= 0. in
  let t_start = Unix.gettimeofday () in
  let min_reps = if smoke then 1 else min_reps in
  let rec loop rep acc setups =
    if rep > min_reps && Unix.gettimeofday () -. t_start >= seconds then (List.rev acc, setups)
    else begin
      let setups =
        List.filter_map
          (fun i -> with_stores (setup_sample ~rep:((1000 * rep) + i)))
          (List.init (if smoke then 1 else setups_per_rep) Fun.id)
        @ setups
      in
      let r = with_stores (h.rep ~rep) in
      loop (rep + 1) (match r with Some r -> r :: acc | None -> acc) setups
    end
  in
  let reps, setups = loop 1 [] [] in
  Option.iter (fun (d, _, _) -> B.rm_rf d) h.shared;
  let med f = B.median (List.map f reps) in
  { Outcome.attempted = !(h.attempted);
    failed = !(h.failed);
    metrics =
      [ ("setup_s", B.median (setups @ List.map (fun r -> r.setup_s) reps));
        ("op_ms", 1000. *. med (fun r -> r.wall_s));
        ("op_cpu_ms", 1000. *. med (fun r -> r.cpu_s));
        ("peak_rss_mb", med (fun r -> float_of_int r.rss_kb /. 1024.)) ];
    extra =
      [ ("reps", Json.Int (List.length reps));
        ("wall_s", Json.List (List.map (fun r -> Json.Float r.wall_s) reps));
        ("exec_s", Json.List (List.map (fun r -> Json.Float r.exec_s) reps));
        ( "sim_minstr_per_s",
          Json.Float (med (fun r -> float_of_int r.sim_instr /. r.exec_s /. 1e6)) );
        ("fill_s", match h.fill with Some r -> Json.Float r.wall_s | None -> Json.Null);
        ( "last_child",
          match List.rev reps with
          | r :: _ -> Json.Obj (List.remove_assoc "digests" (Json.to_obj r.doc))
          | [] -> Json.Null ) ] }

(* ---- traced ---- *)

let digest_pairs runs = List.map (fun r -> (Check.run_key r, Check.run_digest r)) runs

type round = {
  plain_s : float;   (* untraced Sweep.execute *)
  traced_s : float;  (* the traced replay, on equal state *)
  setup_s : float;   (* opening the replay's stores *)
  runs : Sweep.run list;
  stats : Replay.stats;
  spans : Span.span list;
  store_hits : int;
  store_lookups : int;
}

let traced ~work ~jobs ~seed ?window ~check ~rounds w =
  let h = harness ~work ~jobs ~seed ?window ~check w in
  let stores () =
    let d, c, t = match h.shared with Some s -> s | None -> fresh_stores ~work in
    let (cache, store), setup_s =
      B.time (fun () -> (Run_cache.create ~dir:c (), Trace_store.create ~dir:t ()))
    in
    (d, cache, store, setup_s)
  in
  let release d = if h.shared = None then B.rm_rf d in
  (* Untraced and traced passes alternate on equal state, each from a
     collected heap whatever the previous pass left behind; the fastest
     of each side is compared, which noise cannot fake. *)
  let round rep =
    let specs = permuted ~set:w.set ?window ~seed ~rep:(rep + 1) () in
    let d, cache, trace_store, _ = stores () in
    Gc.full_major ();
    let (plain, _), plain_s = B.time (fun () -> Sweep.execute ~cache ~trace_store ~jobs specs) in
    release d;
    let d, cache, store, setup_s = stores () in
    let s0 = Trace_store.stats store in
    Gc.full_major ();
    let (runs, stats, spans), traced_s = B.time (fun () -> Replay.run ~jobs ~cache ~store specs) in
    let s1 = Trace_store.stats store in
    release d;
    h.checked (digest_pairs plain);
    h.checked (digest_pairs runs);
    (* the replay must reproduce Sweep.execute's results exactly *)
    if digest_pairs runs <> digest_pairs plain then incr h.failed;
    { plain_s; traced_s; setup_s; runs; stats; spans;
      store_hits = s1.Trace_store.hits - s0.Trace_store.hits;
      store_lookups =
        s1.Trace_store.hits - s0.Trace_store.hits + s1.Trace_store.misses - s0.Trace_store.misses }
  in
  let rounds = List.init rounds round in
  Option.iter (fun (d, _, _) -> B.rm_rf d) h.shared;
  let best f = List.fold_left (fun a r -> min a (f r)) infinity rounds in
  let plain_s = best (fun r -> r.plain_s) and traced_s = best (fun r -> r.traced_s) in
  let last = List.nth rounds (List.length rounds - 1) in
  let aggs = Span.aggregate last.spans in
  let total = Span.total_of aggs in
  let ratio = Attribution.ratio in
  let stats = last.stats in
  let rows =
    [ ("prepare.store_hit_ratio", ratio (float_of_int last.store_hits) (float_of_int last.store_lookups));
      ("sweep.cache_hit_ratio", ratio (float_of_int stats.Replay.hits) (float_of_int stats.Replay.probes));
      ("sweep.prepare_frac", ratio (total "prepare") (total "prepare" +. total "simulate"));
      ("sweep.batched_frac", ratio (float_of_int stats.Replay.batched) (float_of_int stats.Replay.simulated));
      ( "sweep.pool_busy_frac",
        ratio
          (total "prepare" +. total "sweep.batch")
          (float_of_int jobs *. (total "sweep.prepare_pool" +. total "sweep.simulate_pool")) );
      ("sweep.setup_ms", 1000. *. last.setup_s);
      ("trace.overhead_pct", 100. *. (traced_s -. plain_s) /. plain_s);
      ("trace.unattributed_frac", Span.unattributed_frac last.spans) ]
  in
  let attribution = Attribution.run ~work ~jobs ~specs:(specs ~set:w.set ?window ()) ~runs:last.runs in
  { Outcome.attempted = !(h.attempted);
    failed = !(h.failed);
    metrics = attribution @ rows;
    extra =
      [ ("untraced_s", Json.Float plain_s);
        ("traced_s", Json.Float traced_s);
        ("sim_minstr_per_s", Json.Float (float_of_int stats.Replay.sim_instr /. traced_s /. 1e6));
        ("spans", Span.aggregate_json aggs);
        ("chrome", Span.to_chrome ~process:("pfbench " ^ w.name) last.spans) ] }
