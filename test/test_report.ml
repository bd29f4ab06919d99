(* Tests for pf_report: the JSON codec, the report schema round trips,
   CSV arity, the table aggregates, and the parallel sweep runner's
   determinism in the job count. *)

open Pf_report
open Pf_uarch

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
      Config.adaptive;
      { Config.adaptive with
        Config.tracker_entries = 16;
        mem_sync_threshold = 3;
        safety_store_pct = 10;
        safety_branch_pct = 50;
        safety_serial_ops = 4 };
      Config.doacross;
      { Config.doacross with Config.doacross_sync_distance = 4 } ];
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
        (List.mem f (field_names (Codec.config_to_json Config.adaptive))))
    [ "mem_tracker"; "tracker_entries"; "mem_sync_threshold";
      "safety_store_pct"; "safety_branch_pct"; "safety_serial_ops";
      "doacross_sync_distance" ]

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

let test_sweep_jobs_determinism () =
  let seq, _ = Sweep.execute ~jobs:1 small_specs in
  let par, _ = Sweep.execute ~jobs:4 small_specs in
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
    | _ -> false)

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

(* ---- sweep result cache ---- *)

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
    let rec rm_rf p =
      if Sys.file_exists p then
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
    in
    rm_rf dir;
    dir

(* Reconstruct, from public inputs only, the digest [Sweep.execute]
   uses for the gzip/postdoms cell of [small_specs]. *)
let gzip_postdoms_digest () =
  let wl = Option.get (Pf_workloads.Suite.find "gzip") in
  Run_cache.digest ~workload:"gzip" ~window:3_000
    ~fast_forward:wl.Pf_workloads.Workload.fast_forward ~policy:"postdoms"
    ~label:"postdoms" ~config:Config.polyflow

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
    (Run_cache.find cache ~digest:(gzip_postdoms_digest ()) <> None)

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
  let bytes (r : Sweep.run) =
    Json.to_string (Codec.metrics_to_json r.Sweep.metrics)
    ^ Json.to_string (Codec.counters_to_json r.Sweep.counters)
  in
  List.iter2
    (fun (a : Sweep.run) (b : Sweep.run) ->
      Alcotest.(check string)
        (Printf.sprintf "%s/%s matches the uncached run" a.Sweep.workload
           a.Sweep.label)
        (bytes a) (bytes b))
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
          ( "no_event_skip",
            { c with Config.no_event_skip = not c.Config.no_event_skip } );
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

let test_cache_bypass_and_verbatim_replay () =
  let cache = Run_cache.create ~dir:(temp_cache_dir ()) () in
  let specs = [ Sweep.spec "gzip" Pf_core.Policy.Postdoms ~window:3_000 ] in
  let cold, _ = Sweep.execute ~cache ~jobs:1 specs in
  let digest = gzip_postdoms_digest () in
  (* plant a sentinel wall_s in the stored entry, via the public API *)
  let patched =
    match Run_cache.find cache ~digest with
    | Some (Json.Obj members) ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "wall_s" then (k, Json.Float 123.456) else (k, v))
             members)
    | _ -> Alcotest.fail "expected a cached run object"
  in
  Run_cache.store cache ~digest patched;
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

let test_cache_corruption_ignored () =
  let cache = Run_cache.create ~dir:(temp_cache_dir ()) () in
  let specs = [ Sweep.spec "gzip" Pf_core.Policy.Postdoms ~window:3_000 ] in
  let cold, _ = Sweep.execute ~cache ~jobs:1 specs in
  let digest = gzip_postdoms_digest () in
  let path = Run_cache.path cache ~digest in
  let oc = open_out path in
  output_string oc "{ \"digest\": truncated garb";
  close_out oc;
  (* the corrupt entry downgrades to a miss (with a stderr warning),
     the sweep resimulates and repairs the entry *)
  (match Sweep.execute ~cache ~jobs:1 specs with
  | [ r ], _ ->
      let c = List.hd cold in
      Alcotest.(check string) "resimulated metrics match the cold run"
        (Json.to_string (Codec.metrics_to_json c.Sweep.metrics))
        (Json.to_string (Codec.metrics_to_json r.Sweep.metrics))
  | _ -> Alcotest.fail "one run expected");
  Alcotest.(check bool) "entry repaired in place" true
    (Run_cache.find cache ~digest <> None)

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
        case "table: averages match direct computation" test_table_aggregates;
        case "cache: hits replay runs byte-identically" test_cache_hit_round_trip;
        case "cache: a partial hit prepares only the windows it simulates"
          test_cache_partial_hit;
        case "cache: digest keyed on every input" test_cache_digest_sensitivity;
        case "cache: no-cache bypasses, hits replay verbatim"
          test_cache_bypass_and_verbatim_replay;
        case "cache: corrupt entries resimulated" test_cache_corruption_ignored;
        case "policy names parse back" test_policy_of_string ] ) ]
