(* The workload registry's sharing contract: declared at start-up,
   built once, on first use. These cases need workloads nothing has
   built yet, so they run in a process of their own (test_main builds
   every workload before its first case), in order: the first checks
   the registry as start-up left it. *)

module Suite = Pf_workloads.Suite
module Workload = Pf_workloads.Workload
module Sweep = Pf_report.Sweep
module Run_cache = Pf_report.Run_cache
module Scheduler = Pf_serve.Scheduler
module Protocol = Pf_serve.Protocol
module Metrics = Pf_uarch.Metrics

let case name f = Alcotest.test_case name `Quick f
let entry name = Option.get (Suite.entry name)
let built () = List.filter (fun n -> Suite.is_built (entry n)) Suite.names

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error _ -> ()

(* Sweep.resolve keys a run from the declaration alone, and the
   daemon's resolve goes through it, so neither the figure grid nor a
   daemon cache hit compiles anything *)
let test_resolve_builds_nothing () =
  Alcotest.(check (list string)) "start-up builds nothing" [] (built ());
  let specs = Pf_report.Figures.specs () in
  List.iter
    (fun (s : Sweep.spec) ->
      if Result.is_error (Sweep.resolve s) then
        Alcotest.failf "%s/%s does not resolve" s.workload s.label)
    specs;
  Alcotest.(check int) "the whole figure grid" 360 (List.length specs);
  Alcotest.(check (list string)) "resolving builds nothing" [] (built ());
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pf_registry_test_%d" (Unix.getpid ()))
  in
  let cache = Run_cache.create ~dir () in
  let r =
    Result.get_ok
      (Sweep.resolve (Sweep.spec ~window:4_000 "gzip" Pf_core.Policy.Postdoms))
  in
  Run_cache.store_run cache ~digest:r.r_digest
    { Sweep.workload = "gzip";
      label = "postdoms";
      policy = "postdoms";
      config = r.r_config;
      window = 4_000;
      instructions = 4_000;
      static_spawns = 0;
      wall_s = 0.;
      metrics =
        Metrics.of_counts (Array.make (List.length Metrics.count_names) 0) [];
      counters = [] };
  let sched =
    Scheduler.create ~cache ~jobs:1 ~counters:(Pf_obs.Counters.create ()) ()
  in
  let reply =
    Scheduler.run sched
      { Protocol.id = Pf_json.Json.Null;
        workload = "gzip";
        policy = "postdoms";
        label = None;
        window = Some 4_000;
        config = None;
        timeout_ms = None;
        no_cache = false }
  in
  Scheduler.shutdown sched;
  rm_rf dir;
  (match reply with
  | Protocol.Run_reply { cached = true; _ } -> ()
  | _ -> Alcotest.fail "expected a cache hit");
  Alcotest.(check (list string)) "a daemon hit builds nothing" [] (built ())

(* a forced Lazy raises Lazy.Undefined in the second domain to force
   it; the registry's lock makes every caller wait for one build *)
let test_find_across_domains () =
  let name = "vortex" in
  Alcotest.(check bool) "not built yet" false (Suite.is_built (entry name));
  let n = 4 in
  let ready = Atomic.make 0 in
  let find () =
    Atomic.incr ready;
    while Atomic.get ready < n do
      Domain.cpu_relax ()
    done;
    Option.get (Suite.find name)
  in
  let found = List.map Domain.join (List.init n (fun _ -> Domain.spawn find)) in
  let w = List.hd found in
  List.iter
    (fun (w' : Workload.t) ->
      Alcotest.(check bool) "one program" true (w'.program == w.program);
      Alcotest.(check bool) "one setup" true (w'.setup == w.setup))
    found;
  Alcotest.(check bool) "later finds return it too" true
    (Option.get (Suite.find name) == w);
  Alcotest.(check (list string)) "only it is built" [ name ] (built ())

let test_acquire_builds () =
  let name = "mcf" in
  Alcotest.(check bool) "not built yet" false (Suite.is_built (entry name));
  let prep, took = Sweep.acquire (Sweep.window_slot (entry name) ~window:500) in
  Alcotest.(check bool) "a fresh slot prepares" true (took <> None);
  Alcotest.(check bool) "the window is captured" true
    (Pf_trace.Tracer.length prep.Pf_uarch.Run.trace > 0);
  Alcotest.(check bool) "acquire built it" true (Suite.is_built (entry name))

let () =
  Alcotest.run "registry"
    [ ( "registry",
        [ case "resolving the figure grid builds nothing"
            test_resolve_builds_nothing;
          case "one build for concurrent finds" test_find_across_domains;
          case "acquire builds the workload" test_acquire_builds ] ) ]
