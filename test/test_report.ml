(* Tests for pf_report: the JSON codec, the report schema round trips,
   CSV arity, the table aggregates, and the parallel sweep runner's
   determinism in the job count. *)

open Pf_report
open Pf_uarch
module Json = Pf_json.Json

let case name f = Alcotest.test_case name `Quick f

(* ---- Json ---- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("a", Json.Int (-42));
        ("b", Json.Float 3.140000001);
        ("c", Json.String "line\nbreak \"quoted\" tab\t\\slash");
        ("d", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("e", Json.Obj []);
        ("f", Json.List []);
        ("g", Json.Float 1e300);
        ("h", Json.Float (-0.5));
        ("big", Json.Int max_int) ]
  in
  Alcotest.(check bool) "compact round trip" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "pretty round trip" true
    (Json.of_string (Json.to_string_pretty v) = v)

let test_json_whole_floats_stay_floats () =
  match Json.of_string (Json.to_string (Json.Float 5.)) with
  | Json.Float f -> Alcotest.(check (float 0.)) "value" 5. f
  | _ -> Alcotest.fail "5.0 parsed back as a non-float"

let test_json_escapes () =
  let decode s =
    match Json.of_string s with
    | Json.String s -> s
    | _ -> "not a string"
  in
  Alcotest.(check string)
    "unicode escape decodes to UTF-8" "a\xc3\xa9b"
    (decode "\"a\\u00e9b\"");
  Alcotest.(check string)
    "surrogate pair decodes" "\xf0\x9d\x84\x9e"
    (decode "\"\\ud834\\udd1e\"");
  Alcotest.(check string)
    "raw UTF-8 passes through" "\xf0\x9d\x84\x9e" (decode "\"\xf0\x9d\x84\x9e\"")

let test_json_errors () =
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (fails "{} x");
  Alcotest.(check bool) "unterminated string" true (fails "\"abc");
  Alcotest.(check bool) "bare word" true (fails "postdoms");
  Alcotest.(check bool) "missing colon" true (fails {|{"a" 1}|});
  Alcotest.(check bool) "high surrogate before a plain escape" true
    (fails "\"\\ud800\\u0041\"");
  Alcotest.(check bool) "two high surrogates" true
    (fails "\"\\ud800\\ud800\"");
  Alcotest.(check bool) "lone low surrogate" true (fails "\"\\udc00\"");
  Alcotest.(check bool) "high surrogate at the end" true
    (fails "\"\\ud800\"");
  (* nesting is bounded at 512: a deep line fails at the first bracket
     past the bound instead of recursing to its end *)
  Alcotest.(check bool) "deep nesting rejected early" true
    (match Json.of_string (String.make 1_000_000 '[') with
    | exception Json.Parse_error (offset, _) -> offset <= 513
    | _ -> false);
  Alcotest.(check bool) "nesting at the bound accepted" false
    (fails (String.make 512 '[' ^ String.make 512 ']'));
  Alcotest.(check bool) "non-finite rejected on write" true
    (match Json.to_string (Json.Float Float.nan) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- Metrics codec ---- *)

let arbitrary_metrics =
  let open QCheck.Gen in
  let counter = frequency [ (3, int_bound 10_000); (1, int_bound 2_000_000_000) ] in
  let spawns =
    let category =
      oneofl Pf_core.Spawn_point.all_categories
    in
    list_size (int_bound 5) (pair category counter)
  in
  let gen =
    counter >>= fun instructions ->
    counter >>= fun cycles ->
    counter >>= fun branch_mispredicts ->
    counter >>= fun indirect_mispredicts ->
    counter >>= fun return_mispredicts ->
    spawns >>= fun spawns ->
    counter >>= fun squashes ->
    counter >>= fun squashed_instrs ->
    counter >>= fun diverted ->
    counter >>= fun tasks_spawned ->
    counter >>= fun max_live_tasks ->
    counter >>= fun l1i_misses ->
    counter >>= fun l1d_misses ->
    counter >>= fun l2_misses ->
    counter >>= fun stall_frontend ->
    counter >>= fun stall_divert ->
    counter >>= fun stall_sched ->
    counter >>= fun stall_exec ->
    return
      { Metrics.instructions; cycles; branch_mispredicts; indirect_mispredicts;
        return_mispredicts; spawns; squashes; squashed_instrs; diverted;
        tasks_spawned; max_live_tasks; l1i_misses; l1d_misses; l2_misses;
        stall_frontend; stall_divert; stall_sched; stall_exec }
  in
  QCheck.make gen

let metrics_roundtrip_prop =
  QCheck.Test.make ~name:"Metrics -> JSON -> Metrics is the identity" ~count:200
    arbitrary_metrics (fun m ->
      Codec.metrics_of_json (Json.of_string (Json.to_string (Codec.metrics_to_json m)))
      = m)

let csv_arity_prop =
  QCheck.Test.make ~name:"CSV rows always match the header arity" ~count:200
    arbitrary_metrics (fun m ->
      List.length (Codec.metrics_csv_cells m) = List.length Codec.metrics_csv_header)

let test_config_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "config round trip" true
        (Codec.config_of_json (Json.of_string (Json.to_string (Codec.config_to_json c)))
        = c))
    [ Config.superscalar;
      Config.polyflow;
      { Config.polyflow with Config.max_tasks = 3; split_spawning = true };
      Config.for_policy Adaptive;
      { (Config.for_policy Adaptive) with
        Config.tracker_entries = 16;
        mem_sync_threshold = 3;
        safety_store_pct = 10;
        safety_branch_pct = 50;
        safety_serial_ops = 4 };
      Config.for_policy Doacross;
      { (Config.for_policy Doacross) with Config.doacross_sync_distance = 4 } ];
  (* the tracker fields are additive: a default-valued config must
     serialize without them, so documents and run-cache digests written
     before the subsystem existed stay byte-identical *)
  let field_names j =
    match j with Json.Obj fields -> List.map fst fields | _ -> []
  in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%s absent from a default config document" f)
        false
        (List.mem f (field_names (Codec.config_to_json Config.polyflow)));
      Alcotest.(check bool)
        (Printf.sprintf "%s present for the adaptive config" f)
        (f = "mem_tracker")
        (List.mem f (field_names (Codec.config_to_json (Config.for_policy Adaptive)))))
    [ "mem_tracker"; "tracker_entries"; "mem_sync_threshold";
      "safety_store_pct"; "safety_branch_pct"; "safety_serial_ops";
      "doacross_sync_distance" ];
  (* [no_event_skip] has no field: it is written false, and true is
     refused naming it *)
  let j = Codec.config_to_json Config.polyflow in
  Alcotest.(check bool) "no_event_skip written false" true
    (Json.member "no_event_skip" j = Json.Bool false);
  match
    Codec.config_of_json
      (match j with
      | Json.Obj fields ->
          Json.Obj
            (("no_event_skip", Json.Bool true)
            :: List.remove_assoc "no_event_skip" fields)
      | _ -> assert false)
  with
  | exception Json.Decode_error msg ->
      Alcotest.(check string) "no_event_skip true refused"
        {|"no_event_skip": must be false|} msg
  | _ -> Alcotest.fail "no_event_skip true accepted"

let test_metrics_decode_is_strict () =
  let j = Codec.metrics_to_json (QCheck.Gen.generate1 (QCheck.gen arbitrary_metrics)) in
  let without field =
    match j with
    | Json.Obj fields -> Json.Obj (List.remove_assoc field fields)
    | _ -> assert false
  in
  Alcotest.(check bool) "missing counter rejected" true
    (match Codec.metrics_of_json (without "cycles") with
    | exception Json.Decode_error _ -> true
    | _ -> false)

(* ---- manifest ---- *)

let test_manifest () =
  let m = Manifest.create ~tool:"test" ~jobs:3 ~wall_s:1.5 in
  Alcotest.(check int) "schema version" Manifest.schema_version
    m.Manifest.schema_version;
  Alcotest.(check bool) "git describe non-empty" true (String.length m.Manifest.git > 0);
  let m' = Manifest.of_json (Json.of_string (Json.to_string (Manifest.to_json m))) in
  Alcotest.(check bool) "manifest round trip" true (m = m');
  let bumped =
    match Manifest.to_json m with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "schema_version" then (k, Json.Int 999) else (k, v))
             fields)
    | _ -> assert false
  in
  Alcotest.(check bool) "future schema rejected" true
    (match Manifest.of_json bumped with
    | exception Json.Decode_error _ -> true
    | _ -> false)

(* ---- scratch directories ---- *)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let temp_cache_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "pf_run_cache_%d_%d" (Unix.getpid ()) !n)
    in
    (* Run_cache.create makes the directory; clear leftovers (including
       shard subdirectories) so a previous killed run can't seed
       spurious hits *)
    rm_rf dir;
    dir

(* ---- sweep ---- *)

let small_specs =
  List.concat_map
    (fun w ->
      [ Sweep.spec w Pf_core.Policy.No_spawn ~window:3_000;
        Sweep.spec w Pf_core.Policy.Postdoms ~window:3_000 ])
    [ "gzip"; "mcf" ]

let metrics_bytes runs =
  String.concat "\n"
    (List.map
       (fun (r : Sweep.run) -> Json.to_string (Codec.metrics_to_json r.Sweep.metrics))
       runs)

(* everything a run records except its wall time *)
let run_bytes (r : Sweep.run) =
  Json.to_string (Codec.metrics_to_json r.Sweep.metrics)
  ^ Json.to_string (Codec.counters_to_json r.Sweep.counters)

let test_sweep_jobs_determinism () =
  (* adaptive brings the memory-dependence tracker and the safety filter *)
  let specs =
    small_specs
    @ List.map
        (fun w -> Sweep.spec w Pf_core.Policy.Adaptive ~window:3_000)
        [ "gzip"; "mcf" ]
  in
  let seq, _ = Sweep.execute ~jobs:1 specs in
  let par, _ = Sweep.execute ~jobs:4 specs in
  Alcotest.(check int) "same run count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Sweep.run) (b : Sweep.run) ->
      Alcotest.(check string) "same run order" a.Sweep.label b.Sweep.label)
    seq par;
  Alcotest.(check string) "byte-identical metric values" (metrics_bytes seq)
    (metrics_bytes par)

let test_sweep_document_roundtrip () =
  let runs, prepared = Sweep.execute ~jobs:2 small_specs in
  Alcotest.(check int) "one prepared window per workload" 2 (List.length prepared);
  let doc = Sweep.document ~tool:"test" ~jobs:2 ~wall_s:0.1 runs in
  let doc' = Sweep.of_json (Json.of_string (Json.to_string_pretty (Sweep.to_json doc))) in
  Alcotest.(check bool) "document round trip" true
    (doc.Sweep.manifest = doc'.Sweep.manifest && doc.Sweep.runs = doc'.Sweep.runs);
  (* CSV: header plus one row per run, constant arity *)
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Sweep.to_csv doc))
  in
  (match lines with
  | header :: rows ->
      Alcotest.(check int) "one CSV row per run" (List.length runs) (List.length rows);
      let arity l = List.length (String.split_on_char ',' l) in
      List.iter
        (fun r -> Alcotest.(check int) "CSV row arity" (arity header) (arity r))
        rows
  | [] -> Alcotest.fail "empty CSV")

let test_sweep_rejects_bad_input () =
  Alcotest.(check bool) "unknown workload" true
    (match Sweep.execute ~jobs:1 [ Sweep.spec "nonesuch" Pf_core.Policy.Postdoms ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "duplicate label" true
    (match
       Sweep.execute ~jobs:1
         [ Sweep.spec "gzip" Pf_core.Policy.Postdoms ~window:3_000;
           Sweep.spec "gzip" Pf_core.Policy.Postdoms ~window:3_000 ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let store = Pf_trace.Trace_store.create ~dir:(temp_cache_dir ()) () in
  Alcotest.(check bool) "non-positive window named by workload and label" true
    (match
       Sweep.execute ~trace_store:store ~jobs:1
         [ Sweep.spec "gzip" Pf_core.Policy.Postdoms ~window:3_000;
           Sweep.spec "mcf" Pf_core.Policy.Postdoms ~window:0 ]
     with
    | exception Invalid_argument msg ->
        Test_cfg.contains ~needle:"mcf/postdoms" msg
    | _ -> false);
  List.iter
    (fun (field, config) ->
      Alcotest.(check bool) (field ^ " out of range named") true
        (match
           Sweep.execute ~trace_store:store ~jobs:1
             [ Sweep.spec "gzip" Pf_core.Policy.Postdoms ~window:3_000;
               Sweep.spec "gzip" Pf_core.Policy.Rec_pred ~window:3_000 ~config ]
         with
        | exception Invalid_argument msg -> Test_cfg.contains ~needle:field msg
        | _ -> false))
    Test_uarch.hostile_configs;
  let s = Pf_trace.Trace_store.stats store in
  Alcotest.(check int) "rejected before any window is prepared" 0
    (s.Pf_trace.Trace_store.hits + s.Pf_trace.Trace_store.misses)

(* Four batches of one window claimed by four domains at once: the
   window is prepared by one of them and shared by all four. *)
let test_sweep_window_prepared_once () =
  let specs =
    List.map
      (fun p -> Sweep.spec "gzip" p ~window:3_000)
      Pf_core.Policy.[ No_spawn; Postdoms; Rec_pred; Dmt ]
  in
  let store = Pf_trace.Trace_store.create ~dir:(temp_cache_dir ()) () in
  let par, prepared = Sweep.execute ~trace_store:store ~batch:1 ~jobs:4 specs in
  let s = Pf_trace.Trace_store.stats store in
  Alcotest.(check int) "one trace-store lookup" 1
    (s.Pf_trace.Trace_store.hits + s.Pf_trace.Trace_store.misses);
  Alcotest.(check (list (pair string int))) "one prepared window"
    [ ("gzip", 3_000) ]
    (List.map
       (fun (p : Sweep.prepared_window) -> (p.Sweep.pw_workload, p.Sweep.pw_window))
       prepared);
  let seq, _ = Sweep.execute ~jobs:1 specs in
  Alcotest.(check (list string)) "byte-identical to --jobs 1"
    (List.map run_bytes seq) (List.map run_bytes par)

(* Six windows of one batch each, run inline: after every batch the
   live heap is back near where the first batch left it. A window of
   20,000 instructions holds about 430k words, so a sweep that kept its
   windows would climb by that much per batch. *)
let test_sweep_drops_windows () =
  let specs =
    List.map
      (fun w -> Sweep.spec w Pf_core.Policy.No_spawn ~window:20_000)
      [ "gzip"; "mcf"; "twolf"; "bzip2"; "gcc"; "parser" ]
  in
  let samples = ref [] in
  let progress ~done_:_ ~total =
    Alcotest.(check int) "progress counts batches" 6 total;
    Gc.full_major ();
    samples := (Gc.stat ()).Gc.live_words :: !samples
  in
  ignore (Sweep.execute ~progress ~jobs:1 specs);
  match List.rev !samples with
  | [] -> Alcotest.fail "progress never called"
  | first :: _ as all ->
      Alcotest.(check int) "one sample per batch" 6 (List.length all);
      List.iter
        (fun w ->
          if w - first > 300_000 then
            Alcotest.failf
              "live heap grew from %d to %d words: a window outlived its \
               last batch"
              first w)
        all

(* A failure inside a batch, in a member's simulation or in its
   window's preparation, fails the whole sweep once the pool drains:
   no worker is left waiting on the window, and the next sweep over
   the same window runs normally. *)
let test_sweep_failure_releases () =
  let watchdog = { Config.polyflow with Config.max_cycles_per_instr = 0 } in
  let specs ~fault =
    [ Sweep.spec "gzip" Pf_core.Policy.No_spawn ~window:3_000;
      Sweep.spec "gzip" Pf_core.Policy.Postdoms ~window:3_000
        ?config:(if fault then Some watchdog else None);
      Sweep.spec "gzip" Pf_core.Policy.Rec_pred ~window:3_000 ]
  in
  let sweep ?trace_store ~fault () =
    Sweep.execute ?trace_store ~jobs:2 ~batch:1 (specs ~fault)
  in
  let succeeds ?trace_store () =
    Alcotest.(check int) "a repeat without the fault succeeds" 3
      (List.length (fst (sweep ?trace_store ~fault:false ())))
  in
  (match sweep ~fault:true () with
  | exception Failure msg when Test_cfg.contains ~needle:"watchdog" msg -> ()
  | exception e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "the watchdog member did not fail the sweep");
  succeeds ();
  (* a store whose directory became a regular file cannot publish the
     window its miss prepares *)
  let dir = temp_cache_dir () in
  let store = Pf_trace.Trace_store.create ~dir () in
  rm_rf dir;
  close_out (open_out dir);
  (match sweep ~trace_store:store ~fault:false () with
  | exception Sys_error _ -> ()
  | exception e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "the failed publish did not fail the sweep");
  Sys.remove dir;
  succeeds ~trace_store:(Pf_trace.Trace_store.create ~dir ()) ()

let test_table_aggregates () =
  let runs, _ = Sweep.execute ~jobs:2 small_specs in
  let doc = Sweep.document ~tool:"test" ~jobs:2 ~wall_s:0.1 runs in
  Alcotest.(check (list string)) "workloads in order" [ "gzip"; "mcf" ]
    (Table.workloads doc);
  let direct =
    List.map
      (fun w ->
        let find label =
          match Table.find_run doc ~workload:w ~label with
          | Some r -> r.Sweep.metrics
          | None -> Alcotest.fail ("missing " ^ label)
        in
        Metrics.speedup_pct ~baseline:(find "superscalar") (find "postdoms"))
      [ "gzip"; "mcf" ]
  in
  let expected = List.fold_left ( +. ) 0. direct /. 2. in
  match Table.average_speedup doc ~label:"postdoms" with
  | None -> Alcotest.fail "no average"
  | Some avg ->
      Alcotest.(check (float 1e-9)) "average matches direct computation"
        expected avg

(* ---- run-cache entry codec ---- *)

(* a run built by hand, for cache cases that need no simulation *)
let sample_run : Sweep.run =
  { Sweep.workload = "gzip";
    label = "postdoms";
    policy = "postdoms";
    config = Config.polyflow;
    window = 2_000;
    instructions = 2_000;
    static_spawns = 17;
    wall_s = 0.012_345_678_9;
    metrics =
      { Metrics.instructions = 2_000; cycles = 1_234; branch_mispredicts = 31;
        indirect_mispredicts = 2; return_mispredicts = 1;
        spawns =
          [ (Pf_core.Spawn_point.Hammock, 40); (Pf_core.Spawn_point.Proc_ft, 7) ];
        squashes = 3; squashed_instrs = 45; diverted = 610; tasks_spawned = 47;
        max_live_tasks = 4; l1i_misses = 12; l1d_misses = 80; l2_misses = 9;
        stall_frontend = 300; stall_divert = 20; stall_sched = 41;
        stall_exec = 77 };
    counters = [ ("spawns", 47); ("squashes", 3); ("refetched_instrs", 45) ] }

(* every Config.t field off its default, each int distinct, so a field
   the entry codec forgets or swaps changes the round trip *)
let config_off_default =
  let d = Config.superscalar in
  { Config.width = 101; fetch_tasks_per_cycle = 102; max_tasks = 103;
    rob_entries = 104; scheduler_entries = 105; fus = 106;
    divert_entries = 107; retire_width = 108; min_mispredict_penalty = 109;
    frontend_depth = 110; fetch_buffer = 111; max_spawn_distance = 112;
    min_task_instrs = 113; spawn_latency = 114; squash_penalty = 115;
    ras_depth = 116; max_cycles_per_instr = 117;
    biased_fetch = not d.Config.biased_fetch;
    shared_history = not d.Config.shared_history;
    rob_shares = not d.Config.rob_shares;
    divert_chains = not d.Config.divert_chains;
    sp_hint = not d.Config.sp_hint;
    feedback = not d.Config.feedback;
    split_spawning = not d.Config.split_spawning;
    mem_tracker = not d.Config.mem_tracker;
    tracker_entries = 118; mem_sync_threshold = 119; safety_store_pct = 120;
    safety_branch_pct = 121; safety_serial_ops = 122;
    doacross_sync_distance = 123 }

let arbitrary_run =
  let open QCheck.Gen in
  let text =
    oneof
      [ string_size ~gen:printable (int_bound 24);
        oneofl
          [ ""; "postdoms@tasks=4"; "r\xc3\xa9seau \xcf\x80\xe2\x89\x883";
            "\xf0\x9d\x84\x9e" ] ]
  in
  let value = oneof [ int_bound 100_000; int ] in
  let wall_s =
    oneof
      [ float_bound_inclusive 10.;
        map (fun f -> if Float.is_finite f then f else 0.) float ]
  in
  let config =
    map2
      (fun i b ->
        { Config.width = i.(0); fetch_tasks_per_cycle = i.(1);
          max_tasks = i.(2);
          rob_entries = i.(3); scheduler_entries = i.(4); fus = i.(5);
          divert_entries = i.(6); retire_width = i.(7);
          min_mispredict_penalty = i.(8); frontend_depth = i.(9);
          fetch_buffer = i.(10); max_spawn_distance = i.(11);
          min_task_instrs = i.(12); spawn_latency = i.(13);
          squash_penalty = i.(14); ras_depth = i.(15);
          max_cycles_per_instr = i.(16); biased_fetch = b.(0);
          shared_history = b.(1); rob_shares = b.(2); divert_chains = b.(3);
          sp_hint = b.(4); feedback = b.(5); split_spawning = b.(6);
          mem_tracker = b.(7); tracker_entries = i.(17);
          mem_sync_threshold = i.(18); safety_store_pct = i.(19);
          safety_branch_pct = i.(20); safety_serial_ops = i.(21);
          doacross_sync_distance = i.(22) })
      (array_repeat 23 value) (array_repeat 8 bool)
  in
  let gen =
    text >>= fun workload ->
    text >>= fun label ->
    text >>= fun policy ->
    config >>= fun config ->
    value >>= fun window ->
    value >>= fun instructions ->
    value >>= fun static_spawns ->
    wall_s >>= fun wall_s ->
    QCheck.gen arbitrary_metrics >>= fun metrics ->
    list_size (int_bound 30) (pair text value) >>= fun counters ->
    return
      { Sweep.workload; label; policy; config; window; instructions;
        static_spawns; wall_s; metrics; counters }
  in
  QCheck.make ~print:(fun r -> Json.to_string (Sweep.run_to_json r)) gen

let entry_digest = "0123456789abcdef0123456789abcdef"
let other_digest = "fedcba9876543210fedcba9876543210"
let run_json r = Json.to_string (Sweep.run_to_json r)

(* [decode (encode r)] renders to [r]'s JSON byte for byte *)
let entry_round_trips r =
  let bytes = Run_cache.encode ~digest:entry_digest r in
  match Run_cache.decode ~digest:entry_digest bytes with
  | Ok r' -> run_json r' = run_json r
  | Error _ -> false

let entry_roundtrip_prop =
  QCheck.Test.make ~name:"run-cache entry: decode (encode r) renders r's JSON"
    ~count:300 arbitrary_run entry_round_trips

(* replace the MD5 footer, so that only the checks behind it can reject
   the entry *)
let reseal body = body ^ Digest.string body

(* Every damaged form of a valid entry: each truncation, each byte
   flipped, each re-sealed truncation of the body, random bytes, a
   foreign magic or version, and the entry filed under another digest.
   Each must decode to [Error], without raising. *)
let entry_faults_prop =
  let gen =
    QCheck.Gen.(
      triple (QCheck.gen arbitrary_run) (int_range 1 255)
        (string_size (int_bound 2_000)))
  in
  QCheck.Test.make ~name:"run-cache entry: a damaged entry never decodes"
    ~count:25
    (QCheck.make ~print:(fun (r, _, _) -> run_json r) gen)
    (fun (r, mask, noise) ->
      let valid = Run_cache.encode ~digest:entry_digest r in
      let n = String.length valid in
      let body = String.sub valid 0 (n - 16) in
      let rejected ?(digest = entry_digest) bytes =
        match Run_cache.decode ~digest bytes with
        | Error _ -> true
        | Ok _ | (exception _) -> false
      in
      let with_bytes at s =
        let b = Bytes.of_string body in
        Bytes.blit_string s 0 b at (String.length s);
        reseal (Bytes.to_string b)
      in
      let version = Bytes.create 4 in
      Bytes.set_int32_le version 0
        (Int32.of_int (Run_cache.format_version + 1));
      List.for_all
        (fun k -> rejected (String.sub valid 0 k))
        (List.init n Fun.id)
      && List.for_all
           (fun i ->
             rejected
               (String.mapi
                  (fun j c ->
                    if j = i then Char.chr (Char.code c lxor mask) else c)
                  valid))
           (List.init n Fun.id)
      && List.for_all
           (fun k -> rejected (reseal (String.sub body 0 k)))
           (List.init (String.length body) Fun.id)
      && rejected noise
      && rejected (with_bytes 0 "PFTR")
      && rejected (with_bytes 4 (Bytes.to_string version))
      && rejected ~digest:other_digest valid
      && rejected (with_bytes 8 other_digest)
      && rejected (reseal (body ^ "x")))

(* Every policy class of a small sweep, a config with every field off
   its default, a UTF-8 label, and non-empty spawn and counter lists
   each survive the entry codec byte for byte; so do the JSON
   adapters. *)
let test_entry_round_trip () =
  let runs, _ =
    Sweep.execute ~jobs:1
      (List.map
         (fun p -> Sweep.spec "gzip" p ~window:2_000)
         Pf_core.Policy.
           [ No_spawn; Categories [ Pf_core.Spawn_point.Loop_iter ]; Postdoms;
             Postdoms_minus Pf_core.Spawn_point.Hammock; Rec_pred; Dmt;
             Adaptive; Doacross ])
  in
  let postdoms =
    List.find (fun (r : Sweep.run) -> r.Sweep.label = "postdoms") runs
  in
  Alcotest.(check bool) "the sweep's postdoms run spawns and counts" true
    (postdoms.Sweep.metrics.Metrics.spawns <> []
    && postdoms.Sweep.counters <> []);
  let cases =
    List.map (fun (r : Sweep.run) -> (r.Sweep.label, r)) runs
    @ [ ("every config field off its default",
         { sample_run with Sweep.config = config_off_default });
        ("UTF-8 label",
         { sample_run with
           Sweep.label = "postdoms@\xc3\xa9t\xc3\xa9 \xe2\x88\x80\xf0\x9d\x84\x9e"
         });
        ("hand-built spawns and counters", sample_run) ]
  in
  (* the entry decoder refuses a [no_event_skip] member that reads 1:
     it sits at its [Config.fields] index in the config block, after
     the header, three strings and four 8-byte scalars *)
  let r = sample_run in
  let k =
    Option.get
      (List.find_index
         (fun (f : Config.field) -> f.name = "no_event_skip")
         Config.fields)
  in
  let at =
    40 + 12 + String.length r.workload + String.length r.label
    + String.length r.policy + 32 + (8 * k)
  in
  let entry = Bytes.of_string (Run_cache.encode ~digest:entry_digest r) in
  Alcotest.(check int64) "no_event_skip written 0" 0L
    (Bytes.get_int64_le entry at);
  Bytes.set_int64_le entry at 1L;
  Alcotest.(check bool) "an entry with no_event_skip 1 is refused" true
    (Result.is_error
       (Run_cache.decode ~digest:entry_digest
          (reseal (Bytes.sub_string entry 0 (Bytes.length entry - 16)))));
  let cache = Run_cache.create ~dir:(temp_cache_dir ()) () in
  List.iter
    (fun (what, r) ->
      let bytes = Run_cache.encode ~digest:entry_digest r in
      (match Run_cache.decode ~digest:entry_digest bytes with
      | Ok r' ->
          Alcotest.(check string) (what ^ ": entry round trip") (run_json r)
            (run_json r');
          (* the JSON above is blind to a field missing from both
             codecs; the records are not *)
          Alcotest.(check bool) (what ^ ": every config field back") true
            (r'.Sweep.config = r.Sweep.config
            && Codec.config_of_json (Codec.config_to_json r.Sweep.config)
               = r.Sweep.config)
      | Error e -> Alcotest.failf "%s: entry rejected (%s)" what e);
      Run_cache.store cache ~digest:entry_digest (Sweep.run_to_json r);
      match Run_cache.find cache ~digest:entry_digest with
      | Some j ->
          Alcotest.(check string) (what ^ ": JSON adapters") (run_json r)
            (Json.to_string j)
      | None -> Alcotest.failf "%s: JSON adapter missed" what)
    cases

(* ---- sweep result cache ---- *)

(* Reconstruct, from public inputs only, the digest [Sweep.execute]
   uses for the gzip/postdoms cell of [small_specs]. *)
let gzip_postdoms_digest () =
  let wl = Option.get (Pf_workloads.Suite.find "gzip") in
  Run_cache.digest ~workload:"gzip" ~window:3_000
    ~fast_forward:wl.Pf_workloads.Workload.fast_forward ~policy:"postdoms"
    ~label:"postdoms" ~config:Config.polyflow

let find_gzip_postdoms cache =
  Run_cache.find_run cache ~digest:(gzip_postdoms_digest ()) ~workload:"gzip"
    ~label:"postdoms"

let test_cache_hit_round_trip () =
  let cache = Run_cache.create ~dir:(temp_cache_dir ()) () in
  let cold, _ = Sweep.execute ~cache ~jobs:1 small_specs in
  let stats = ref None in
  let warm, prepared =
    Sweep.execute ~cache ~on_stats:(fun s -> stats := Some s) ~jobs:1
      small_specs
  in
  Alcotest.(check bool) "hits replay the stored runs verbatim" true
    (cold = warm);
  Alcotest.(check int) "a full hit prepares no window" 0
    (List.length prepared);
  (match !stats with
  | Some s ->
      Alcotest.(check (float 0.)) "no prepare time on a full hit" 0.
        s.Sweep.prepare_ms;
      Alcotest.(check int) "every run replayed" 4 s.Sweep.cached_runs
  | None -> Alcotest.fail "on_stats not called");
  Alcotest.(check bool) "the sweep's digest is reconstructible" true
    (find_gzip_postdoms cache <> None)

(* A cache holding only the mcf runs: the sweep prepares the gzip
   window alone, through one trace-store lookup, and its mix of
   replayed and simulated runs matches an uncached sweep. *)
let test_cache_partial_hit () =
  let cache = Run_cache.create ~dir:(temp_cache_dir ()) () in
  ignore
    (Sweep.execute ~cache ~jobs:1
       (List.filter (fun (s : Sweep.spec) -> s.Sweep.workload = "mcf")
          small_specs));
  let store = Pf_trace.Trace_store.create ~dir:(temp_cache_dir ()) () in
  let runs, prepared =
    Sweep.execute ~cache ~trace_store:store ~jobs:2 small_specs
  in
  Alcotest.(check (list (pair string int))) "only the gzip window prepared"
    [ ("gzip", 3_000) ]
    (List.map
       (fun (p : Sweep.prepared_window) -> (p.Sweep.pw_workload, p.Sweep.pw_window))
       prepared);
  let s = Pf_trace.Trace_store.stats store in
  Alcotest.(check int) "one trace-store lookup" 1
    (s.Pf_trace.Trace_store.hits + s.Pf_trace.Trace_store.misses);
  let uncached, _ = Sweep.execute ~jobs:1 small_specs in
  List.iter2
    (fun (a : Sweep.run) (b : Sweep.run) ->
      Alcotest.(check string)
        (Printf.sprintf "%s/%s matches the uncached run" a.Sweep.workload
           a.Sweep.label)
        (run_bytes a) (run_bytes b))
    uncached runs

let test_cache_digest_sensitivity () =
  let wl = Option.get (Pf_workloads.Suite.find "gzip") in
  let ff = wl.Pf_workloads.Workload.fast_forward in
  let d ?(workload = "gzip") ?(window = 3_000) ?(fast_forward = ff)
      ?(policy = "postdoms") ?(label = "postdoms")
      ?(config = Config.polyflow) () =
    Run_cache.digest ~workload ~window ~fast_forward ~policy ~label ~config
  in
  let c = Config.polyflow in
  let variants =
    [ ("workload", d ~workload:"mcf" ());
      ("window", d ~window:4_000 ());
      ("fast_forward", d ~fast_forward:(ff + 1) ());
      ("policy", d ~policy:"rec_pred" ());
      ("label", d ~label:"postdoms@variant" ()) ]
    @ List.map
        (fun (name, config) -> (name, d ~config ()))
        [ ("width", { c with Config.width = c.Config.width + 1 });
          ( "fetch_tasks_per_cycle",
            { c with
              Config.fetch_tasks_per_cycle = c.Config.fetch_tasks_per_cycle + 1
            } );
          ("max_tasks", { c with Config.max_tasks = c.Config.max_tasks + 1 });
          ( "rob_entries",
            { c with Config.rob_entries = c.Config.rob_entries + 1 } );
          ( "scheduler_entries",
            { c with
              Config.scheduler_entries = c.Config.scheduler_entries + 1 } );
          ("fus", { c with Config.fus = c.Config.fus + 1 });
          ( "divert_entries",
            { c with Config.divert_entries = c.Config.divert_entries + 1 } );
          ( "retire_width",
            { c with Config.retire_width = c.Config.retire_width + 1 } );
          ( "min_mispredict_penalty",
            { c with
              Config.min_mispredict_penalty =
                c.Config.min_mispredict_penalty + 1 } );
          ( "frontend_depth",
            { c with Config.frontend_depth = c.Config.frontend_depth + 1 } );
          ( "fetch_buffer",
            { c with Config.fetch_buffer = c.Config.fetch_buffer + 1 } );
          ( "max_spawn_distance",
            { c with
              Config.max_spawn_distance = c.Config.max_spawn_distance + 1 } );
          ( "min_task_instrs",
            { c with Config.min_task_instrs = c.Config.min_task_instrs + 1 } );
          ( "spawn_latency",
            { c with Config.spawn_latency = c.Config.spawn_latency + 1 } );
          ( "squash_penalty",
            { c with Config.squash_penalty = c.Config.squash_penalty + 1 } );
          ("ras_depth", { c with Config.ras_depth = c.Config.ras_depth + 1 });
          ( "max_cycles_per_instr",
            { c with
              Config.max_cycles_per_instr = c.Config.max_cycles_per_instr + 1
            } );
          ( "biased_fetch",
            { c with Config.biased_fetch = not c.Config.biased_fetch } );
          ( "shared_history",
            { c with Config.shared_history = not c.Config.shared_history } );
          ("rob_shares", { c with Config.rob_shares = not c.Config.rob_shares });
          ( "divert_chains",
            { c with Config.divert_chains = not c.Config.divert_chains } );
          ("sp_hint", { c with Config.sp_hint = not c.Config.sp_hint });
          ("feedback", { c with Config.feedback = not c.Config.feedback });
          ( "split_spawning",
            { c with Config.split_spawning = not c.Config.split_spawning } );
          (* memory-dependence tracker fields: serialized (and so
             digested) only when non-default, which is exactly what
             each variant here is *)
          ( "mem_tracker",
            { c with Config.mem_tracker = not c.Config.mem_tracker } );
          ( "tracker_entries",
            { c with Config.tracker_entries = c.Config.tracker_entries * 2 } );
          ( "mem_sync_threshold",
            { c with
              Config.mem_sync_threshold = c.Config.mem_sync_threshold + 1 } );
          ( "safety_store_pct",
            { c with Config.safety_store_pct = c.Config.safety_store_pct + 1 }
          );
          ( "safety_branch_pct",
            { c with
              Config.safety_branch_pct = c.Config.safety_branch_pct + 1 } );
          ( "safety_serial_ops",
            { c with
              Config.safety_serial_ops = c.Config.safety_serial_ops + 1 } );
          ( "doacross_sync_distance",
            { c with
              Config.doacross_sync_distance =
                c.Config.doacross_sync_distance + 1 } ) ]
  in
  let seen = Hashtbl.create 64 in
  Hashtbl.add seen (d ()) "base";
  List.iter
    (fun (name, digest) ->
      (match Hashtbl.find_opt seen digest with
      | Some clash ->
          Alcotest.failf "changing %s collides with %s" name clash
      | None -> ());
      Hashtbl.add seen digest name)
    variants

(* Random configs that pass [Config.check]: each field drawn from its
   own range (capped 4,096 above its floor), or at its polyflow value *)
let arbitrary_valid_config =
  let open QCheck.Gen in
  let value (f : Config.field) =
    if f.flag then int_range 0 1
    else
      oneof
        [ return (f.get Config.polyflow);
          int_range f.lo (min f.hi (f.lo + 4_096)) ]
  in
  QCheck.make
    ~print:(Format.asprintf "%a" Config.pp)
    (List.fold_left
       (fun acc (f : Config.field) ->
         acc >>= fun c -> map (f.set c) (value f))
       (return Config.superscalar) Config.fields)

(* the key [Run_cache.digest] hashes, encoded afresh *)
let fresh_digest ~label config =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [ "polyflow-run-cache"; Engine.timing_version; "gzip"; "3000";
            "2000"; "postdoms"; label;
            Json.to_string (Codec.config_to_json config) ]))

(* Each case digests 100 configs, more than the memo holds, twice: the
   first pass fills (and empties) the memo, the second reads it. *)
let digest_memo_prop =
  QCheck.Test.make ~name:"cache: the memoised digest equals a fresh encode"
    ~count:20
    (QCheck.list_of_size (QCheck.Gen.return 100) arbitrary_valid_config)
    (fun configs ->
      let matches i config =
        let label = string_of_int i in
        Run_cache.digest ~workload:"gzip" ~window:3_000 ~fast_forward:2_000
          ~policy:"postdoms" ~label ~config
        = fresh_digest ~label config
      in
      List.for_all (fun c -> Config.check c = Ok ()) configs
      && List.for_all Fun.id (List.mapi matches configs)
      && List.for_all Fun.id (List.mapi matches configs))

(* The cache key and the entry bytes, pinned as test_golden.ml pins the
   goldens: changing either orphans every cache on disk, so it comes
   with a new [Engine.timing_version] (key) or [Run_cache.format_version]
   (entry) and a new pin here, never an edit of an old one. The keys are
   gzip's at window 3,000 under each default machine and one machine
   with every field off its default. That machine's [no_event_skip]
   member is [false], the one value it still takes; its key and entry
   pins were recorded with the member [false] while it was still a
   field, so they hold that no byte moved for a config that exists. *)
let key_pins =
  [ ( "engine-3",
      [ ("superscalar", "b1b16290ea08b564ceac88bf26ba6ad5");
        ("postdoms", "dadc36435694380cc621d2d9a50699ba");
        ("adaptive", "368dbbd35e6dbd2cec67458950e9ba47");
        ("doacross", "a63e45a17d61a6e4edf365ffbb35ea6f");
        ("postdoms@off-default", "463904e01d17f7b7aac8b7152a7edec2") ] ) ]

let entry_pins = [ (1, "e61eca7a2fbbe9fd00593c423a7a1afb") ]

let test_cache_key_and_entry_pinned () =
  let wl = Option.get (Pf_workloads.Suite.find "gzip") in
  let key label policy config =
    ( label,
      Run_cache.digest ~workload:"gzip" ~window:3_000
        ~fast_forward:wl.Pf_workloads.Workload.fast_forward
        ~policy:(Pf_core.Policy.name policy) ~label ~config )
  in
  let keys =
    List.map
      (fun p -> key (Pf_core.Policy.name p) p (Config.for_policy p))
      Pf_core.Policy.[ No_spawn; Postdoms; Adaptive; Doacross ]
    @ [ key "postdoms@off-default" Pf_core.Policy.Postdoms config_off_default ]
  in
  let entry =
    Digest.to_hex
      (Digest.string
         (Run_cache.encode ~digest:entry_digest
            { sample_run with Sweep.config = config_off_default }))
  in
  (match List.assoc_opt Engine.timing_version key_pins with
  | None ->
      Alcotest.failf "timing_version %s has no key pin; add (%S, [ %s ])"
        Engine.timing_version Engine.timing_version
        (String.concat "; "
           (List.map (fun (l, d) -> Printf.sprintf "(%S, %S)" l d) keys))
  | Some pinned ->
      Alcotest.(check (list (pair string string)))
        ("run-cache keys under " ^ Engine.timing_version)
        pinned keys);
  match List.assoc_opt Run_cache.format_version entry_pins with
  | None ->
      Alcotest.failf "format_version %d has no entry pin; add (%d, %S)"
        Run_cache.format_version Run_cache.format_version entry
  | Some pinned ->
      Alcotest.(check string)
        (Printf.sprintf "entry MD5 under format_version %d"
           Run_cache.format_version)
        pinned entry

let test_cache_bypass_and_verbatim_replay () =
  let cache = Run_cache.create ~dir:(temp_cache_dir ()) () in
  let specs = [ Sweep.spec "gzip" Pf_core.Policy.Postdoms ~window:3_000 ] in
  let cold, _ = Sweep.execute ~cache ~jobs:1 specs in
  (* plant a sentinel wall_s in the stored entry, via the public API *)
  (match find_gzip_postdoms cache with
  | Some r ->
      Run_cache.store_run cache ~digest:(gzip_postdoms_digest ())
        { r with Sweep.wall_s = 123.456 }
  | None -> Alcotest.fail "expected a cached run");
  (match Sweep.execute ~cache ~jobs:1 specs with
  | [ r ], _ ->
      Alcotest.(check (float 0.)) "a hit replays the entry verbatim" 123.456
        r.Sweep.wall_s
  | _ -> Alcotest.fail "one run expected");
  (* no [cache] argument is exactly bench's --no-cache: resimulate *)
  match Sweep.execute ~jobs:1 specs with
  | [ f ], _ ->
      let c = List.hd cold in
      Alcotest.(check bool) "bypass resimulates (sentinel gone)" false
        (f.Sweep.wall_s = 123.456);
      Alcotest.(check string) "bypass reproduces the cold metrics"
        (Json.to_string (Codec.metrics_to_json c.Sweep.metrics))
        (Json.to_string (Codec.metrics_to_json f.Sweep.metrics))
  | _ -> Alcotest.fail "one run expected"

(* Two domains probe one cache for an absent entry at once: the store
   counts every miss, because it counts under its lock. *)
let test_cache_counts_across_domains () =
  let cache = Run_cache.create ~dir:(temp_cache_dir ()) () in
  let per_domain = 50_000 in
  let probe () =
    for _ = 1 to per_domain do
      ignore
        (Run_cache.find_run cache ~digest:entry_digest ~workload:"gzip"
           ~label:"postdoms")
    done
  in
  let other = Domain.spawn probe in
  probe ();
  Domain.join other;
  Alcotest.(check int) "every miss counted" (2 * per_domain)
    (Run_cache.stats cache).Run_cache.misses

let test_cache_corruption_ignored () =
  let cache = Run_cache.create ~dir:(temp_cache_dir ()) () in
  let specs = [ Sweep.spec "gzip" Pf_core.Policy.Postdoms ~window:3_000 ] in
  let cold, _ = Sweep.execute ~cache ~jobs:1 specs in
  let digest = gzip_postdoms_digest () in
  let path = Run_cache.path cache ~digest in
  let read () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let valid = read () in
  (* a torn write: the first half of the valid entry *)
  let oc = open_out_bin path in
  output_string oc (String.sub valid 0 (String.length valid / 2));
  close_out oc;
  (* the truncated entry downgrades to a miss (with a stderr warning),
     the sweep resimulates and repairs the entry *)
  let simulated sweep_cache =
    let n = ref (-1) in
    let runs, _ =
      Sweep.execute ~cache:sweep_cache
        ~on_stats:(fun s -> n := s.Sweep.simulated_runs)
        ~jobs:1 specs
    in
    (runs, !n)
  in
  let c = List.hd cold in
  (match simulated cache with
  | [ r ], n ->
      Alcotest.(check int) "the truncated entry is resimulated" 1 n;
      Alcotest.(check string) "resimulated metrics match the cold run"
        (Json.to_string (Codec.metrics_to_json c.Sweep.metrics))
        (Json.to_string (Codec.metrics_to_json r.Sweep.metrics))
  | _ -> Alcotest.fail "one run expected");
  (match Run_cache.decode ~digest (read ()) with
  | Ok r ->
      Alcotest.(check string) "entry repaired in place"
        (Json.to_string (Codec.metrics_to_json c.Sweep.metrics))
        (Json.to_string (Codec.metrics_to_json r.Sweep.metrics))
  | Error e -> Alcotest.failf "entry not repaired (%s)" e);
  match simulated cache with
  | [ _ ], n -> Alcotest.(check int) "the repaired entry hits" 0 n
  | _ -> Alcotest.fail "one run expected"

(* ---- the paper's tables (Table, Figures) ---- *)

(* a run per spec, built by hand: each with its own cycle count, so no
   speedup is degenerate *)
let fixture_doc specs =
  Sweep.document ~tool:"test" ~jobs:1 ~wall_s:0.
    (List.mapi
       (fun i (s : Sweep.spec) ->
         { sample_run with
           Sweep.workload = s.Sweep.workload;
           label = s.Sweep.label;
           metrics =
             { sample_run.Sweep.metrics with Metrics.cycles = 1_000 + i } })
       specs)

let render print =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  print ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* the column at which the first occurrence of [needle] in [s] ends *)
let end_of ~needle s =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "%S not in %S" needle s
    else if String.sub s i n = needle then i + n
    else go (i + 1)
  in
  go 0

(* The benchmark column is as wide as the longest workload name plus
   one, and never narrower than the 10 characters the SPEC tables have
   always used: every row's first cell ends where the header's first
   label does. *)
let test_table_column_fits_names () =
  let first_cells workloads =
    let labels = [ "superscalar"; "postdoms" ] in
    let doc =
      fixture_doc
        (List.concat_map
           (fun w ->
             List.map
               (fun label -> Sweep.spec w Pf_core.Policy.Postdoms ~label)
               labels)
           workloads)
    in
    let out =
      render (fun out ->
          Table.print_speedup_table ~out ~workloads ~labels:[ "postdoms" ] doc)
    in
    match String.split_on_char '\n' out with
    | header :: rest ->
        let rows = List.filter (fun l -> l <> "" && l.[0] <> '-') rest in
        Alcotest.(check int) "a row per workload and the average"
          (List.length workloads + 1) (List.length rows);
        ( end_of ~needle:"postdoms" header,
          List.map (fun row -> end_of ~needle:"%" row) rows )
    | [] -> Alcotest.fail "no table"
  in
  let check workloads expected =
    let header, rows = first_cells workloads in
    List.iter (Alcotest.(check int) "a row's first cell" header) rows;
    Alcotest.(check int) "the header's first label" expected header
  in
  check [ "gzip"; "vpr.place" ] 20;
  check [ "loopnest.d2.strided.n1"; "gzip" ] 33

(* The metric columns follow [Metrics.count_names], with ipc after
   cycles, then one column per spawn category. The hand-built sample
   run pins which field each column reads. *)
let test_csv_columns_pinned () =
  let doc = Sweep.document ~tool:"test" ~jobs:1 ~wall_s:0. [ sample_run ] in
  Alcotest.(check (list string)) "header and row"
    [ "workload,label,policy,window,static_spawns,wall_s,instructions,\
       cycles,ipc,branch_mispredicts,indirect_mispredicts,\
       return_mispredicts,squashes,squashed_instrs,diverted,tasks_spawned,\
       max_live_tasks,l1i_misses,l1d_misses,l2_misses,stall_frontend,\
       stall_divert,stall_sched,stall_exec,spawns_loop,spawns_loopFT,\
       spawns_procFT,spawns_hammock,spawns_other";
      "gzip,postdoms,postdoms,2000,17,0.012,2000,1234,1.620746,31,2,1,3,45,\
       610,47,4,12,80,9,300,20,41,77,0,0,7,40,0";
      "" ]
    (String.split_on_char '\n' (Sweep.to_csv doc))

(* An Average row, and a figure's headline, read only the rows their
   table prints: a document's other workloads change neither. *)
let test_table_average_reads_its_rows () =
  let run workload label cycles =
    { sample_run with
      Sweep.workload;
      label;
      metrics = { sample_run.Sweep.metrics with Metrics.cycles } }
  in
  let doc =
    Sweep.document ~tool:"test" ~jobs:1 ~wall_s:0.
      (List.concat_map
         (fun (w, cycles) ->
           [ run w "superscalar" 2_000; run w "postdoms" cycles ])
         [ ("gzip", 1_000); ("mcf", 2_000); ("twolf", 500) ])
  in
  let out =
    render (fun out ->
        Table.print_speedup_table ~out ~workloads:[ "gzip"; "mcf" ]
          ~labels:[ "postdoms" ] doc)
  in
  (match
     List.filter
       (String.starts_with ~prefix:"Average")
       (String.split_on_char '\n' out)
   with
  | [ average ] ->
      if not (String.ends_with ~suffix:" +50.0%" average) then
        Alcotest.failf "%S is not the mean of +100.0%% and +0.0%%" average
  | _ -> Alcotest.failf "no single Average row in %S" out);
  let grid = fixture_doc (Figures.specs ~window:2_000 ()) in
  let nest =
    List.map
      (fun (s : Sweep.spec) ->
        run s.Sweep.workload s.Sweep.label
          (if s.Sweep.label = "superscalar" then 4_000 else 500))
      (Figures.loopnest_specs ~window:2_000
         ~nests:[ "loopnest.d2.strided.n1" ] ())
  in
  let print runs =
    render (fun ppf -> Figures.print ppf { grid with Sweep.runs })
  in
  let spec_tables = print grid.Sweep.runs in
  let with_nest = print (grid.Sweep.runs @ nest) in
  Alcotest.(check string) "a loop nest's runs change no SPEC table"
    spec_tables
    (String.sub with_nest 0 (String.length spec_tables))

let paper_titles =
  [ "Figure 9: "; "Figure 10: "; "Figure 11: "; "Figure 12: "; "Related work ";
    "Extension: "; "Sources of speedup: "; "Design ablations: "; "Future work " ]

(* the title of every section [Figures.print] printed, in order *)
let titles doc =
  let bar = String.make 98 '=' in
  let rec go = function
    | b :: title :: b' :: rest when b = bar && b' = bar -> title :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (String.split_on_char '\n' (render (fun ppf -> Figures.print ppf doc)))

let check_titles what expected doc =
  let got = titles doc in
  Alcotest.(check int) (what ^ ": sections printed") (List.length expected)
    (List.length got);
  List.iter2
    (fun prefix title ->
      if not (String.starts_with ~prefix title) then
        Alcotest.failf "%s: %S where %S... was expected" what title prefix)
    expected got

(* One fixture run per cell of the paper grid: [Figures.print] emits each
   of the grid's tables once, in order; a document without the runs of
   one table drops that table alone; the window-sensitivity and
   loop-nest tables print exactly when their cells are there. No
   simulation. *)
let test_figures_print_sections () =
  let grid = Figures.specs ~window:2_000 () in
  let doc = fixture_doc grid in
  check_titles "paper grid" paper_titles doc;
  List.iter
    (fun (label, title) ->
      check_titles ("without " ^ label)
        (List.filter (( <> ) title) paper_titles)
        (fixture_doc
           (List.filter (fun (s : Sweep.spec) -> s.Sweep.label <> label) grid)))
    [ ("loop", "Figure 9: "); ("loop+loopFT", "Figure 10: ");
      ("postdoms-other", "Figure 11: "); ("dmt", "Related work ");
      ("postdoms@tasks=2", "Extension: ");
      ("postdoms@icount", "Design ablations: ");
      ("postdoms@split", "Future work ") ];
  (* one workload without one run is enough to drop its table *)
  check_titles "gzip without postdoms@split"
    (List.filter (( <> ) "Future work ") paper_titles)
    (fixture_doc
       (List.filter
          (fun (s : Sweep.spec) ->
            not (s.Sweep.workload = "gzip" && s.Sweep.label = "postdoms@split"))
          grid));
  check_titles "default windows"
    (paper_titles @ [ "Window-size sensitivity: " ])
    (fixture_doc (Figures.specs ()));
  check_titles "loop nests"
    [ "Dependence-distance figure: "; "Stride and depth variants " ]
    (fixture_doc (Figures.loopnest_specs ()));
  check_titles "carry-span sweep" [ "Dependence-distance figure: " ]
    (fixture_doc
       (Figures.loopnest_specs ~nests:Pf_workloads.Loopnest.sweep_names ()));
  Alcotest.(check string) "an empty document prints nothing" ""
    (render (fun ppf -> Figures.print ppf (fixture_doc [])))

(* ---- policy names round-trip (the CLI and the schema rely on it) ---- *)

let test_policy_of_string () =
  List.iter
    (fun p ->
      match Pf_core.Policy.of_string (Pf_core.Policy.name p) with
      | Ok p' ->
          Alcotest.(check string)
            ("name round trip for " ^ Pf_core.Policy.name p)
            (Pf_core.Policy.name p) (Pf_core.Policy.name p')
      | Error e -> Alcotest.fail e)
    (Pf_core.Policy.(
       (No_spawn :: figure9_policies) @ figure10_policies @ figure11_policies
       @ figure12_policies @ [ Dmt; Adaptive; Doacross ]));
  Alcotest.(check bool) "junk rejected" true
    (match Pf_core.Policy.of_string "frobnicate" with Error _ -> true | Ok _ -> false)

let suite =
  [ ( "report",
      [ case "json: nested value round trip" test_json_roundtrip;
        case "json: whole floats stay floats" test_json_whole_floats_stay_floats;
        case "json: escape decoding" test_json_escapes;
        case "json: malformed input rejected" test_json_errors;
        Prop.to_alcotest metrics_roundtrip_prop;
        Prop.to_alcotest csv_arity_prop;
        case "config round trip" test_config_roundtrip;
        case "metrics decode is strict" test_metrics_decode_is_strict;
        case "manifest: stamp, round trip, version gate" test_manifest;
        case "sweep: --jobs 1 and --jobs 4 byte-identical" test_sweep_jobs_determinism;
        case "sweep: document and CSV round trip" test_sweep_document_roundtrip;
        case "sweep: bad input rejected" test_sweep_rejects_bad_input;
        case "sweep: each window prepared once across domains"
          test_sweep_window_prepared_once;
        case "sweep: no window outlives its last batch" test_sweep_drops_windows;
        case
          "sweep: a failing member or preparation fails the sweep without \
           hanging"
          test_sweep_failure_releases;
        case "table: averages match direct computation" test_table_aggregates;
        case "cache: hits replay runs byte-identically" test_cache_hit_round_trip;
        case "cache: a partial hit prepares only the windows it simulates"
          test_cache_partial_hit;
        case "cache: digest keyed on every input" test_cache_digest_sensitivity;
        case "cache: key and entry bytes pinned to their versions"
          test_cache_key_and_entry_pinned;
        case "cache: no-cache bypasses, hits replay verbatim"
          test_cache_bypass_and_verbatim_replay;
        case "cache: corrupt entries resimulated" test_cache_corruption_ignored;
        case "cache: entry round trip is byte-identical" test_entry_round_trip;
        Prop.to_alcotest digest_memo_prop;
        Prop.to_alcotest entry_roundtrip_prop;
        Prop.to_alcotest entry_faults_prop;
        case "table: the benchmark column fits the longest name"
          test_table_column_fits_names;
        case "figures: each table prints exactly when its runs are present"
          test_figures_print_sections;
        case "policy names parse back" test_policy_of_string;
        case "cache: counts stay exact across domains"
          test_cache_counts_across_domains;
        case "table: averages read only the rows printed"
          test_table_average_reads_its_rows;
        case "sweep: CSV columns pinned" test_csv_columns_pinned ] ) ]
