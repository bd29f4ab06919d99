(* pf_obs end-to-end: the observability subsystem must never change
   timing (sink-attached metrics identical to sink-detached), the CPI
   stack must account for every (cycle, slot) pair exactly once, the
   Chrome trace must be a well-formed trace_event array with one span
   per task, and the counter registry must agree with the Metrics
   record for the counts both report. *)

open Pf_uarch
module Sink = Pf_obs.Sink
module Counters = Pf_obs.Counters
module Cpi_stack = Pf_obs.Cpi_stack
module Chrome_trace = Pf_obs.Chrome_trace
module Json = Pf_json.Json

let case name f = Alcotest.test_case name `Quick f

(* One simulation observed three ways at once: CPI stack, Chrome trace
   and a counter registry, all tee'd onto one sink. *)
type observed = {
  plain : Metrics.t;  (** the same run without any sink *)
  max_tasks : int;  (** of the machine the run simulated *)
  m : Metrics.t;
  cpi : Cpi_stack.t;
  trace : Chrome_trace.t;
  counters : Counters.t;
}

let observe ?config prepared ~policy =
  let plain = Run.simulate ?config prepared ~policy in
  let cpi = Cpi_stack.create () in
  let trace = Chrome_trace.create () in
  let counters = Counters.create () in
  let sink =
    List.fold_left Sink.tee Sink.null
      [ Cpi_stack.sink cpi; Chrome_trace.sink trace ]
  in
  let m = Run.simulate ~sink ~counters ?config prepared ~policy in
  let machine = Option.value config ~default:(Config.for_policy policy) in
  { plain; max_tasks = machine.Config.max_tasks; m; cpi; trace; counters }

let prep_hammock = lazy (Test_uarch.prepare_hammock ())

let prep_squashy =
  lazy
    (let program, setup = Test_uarch.memory_dep_workload ~iters:400 in
     Run.prepare program ~setup ~fast_forward:20 ~window:15_000)

let obs_cases =
  lazy
    [ ("hammock/superscalar",
       observe (Lazy.force prep_hammock) ~policy:Pf_core.Policy.No_spawn);
      ("hammock/postdoms",
       observe (Lazy.force prep_hammock) ~policy:Pf_core.Policy.Postdoms);
      ("squashy/postdoms",
       observe (Lazy.force prep_squashy) ~policy:Pf_core.Policy.Postdoms) ]

let iter_cases f = List.iter (fun (name, o) -> f name o) (Lazy.force obs_cases)

let test_sink_parity () =
  iter_cases (fun name o ->
      Alcotest.(check bool)
        (name ^ ": metrics identical with and without sinks")
        true (o.plain = o.m))

let test_cpi_rows_sum_to_cycles () =
  iter_cases (fun name o ->
      Alcotest.(check int) (name ^ ": one row per task slot") o.max_tasks
        (Cpi_stack.slots o.cpi);
      for s = 0 to Cpi_stack.slots o.cpi - 1 do
        Alcotest.(check int)
          (Printf.sprintf "%s: slot %d cycles" name s)
          o.m.Metrics.cycles
          (Cpi_stack.slot_total o.cpi s)
      done;
      Alcotest.(check int) (name ^ ": grand total")
        (Cpi_stack.slots o.cpi * o.m.Metrics.cycles)
        (Cpi_stack.total o.cpi);
      let agg = Cpi_stack.aggregate o.cpi in
      Alcotest.(check int) (name ^ ": aggregate width") Sink.n_reasons
        (Array.length agg);
      Alcotest.(check int) (name ^ ": aggregate total")
        (Cpi_stack.total o.cpi)
        (Array.fold_left ( + ) 0 agg))

let test_chrome_span_per_task () =
  iter_cases (fun name o ->
      (* the initial task plus every spawned task gets exactly one span *)
      Alcotest.(check int) (name ^ ": spans = tasks_spawned + 1")
        (o.m.Metrics.tasks_spawned + 1)
        (Chrome_trace.spans o.trace))

let test_chrome_trace_shape () =
  iter_cases (fun name o ->
      let j = Chrome_trace.to_json o.trace ~cycles:o.m.Metrics.cycles in
      let events = Json.to_list j in
      let ph e = Json.to_str (Json.member "ph" e) in
      let count p = List.length (List.filter (fun e -> ph e = p) events) in
      Alcotest.(check int) (name ^ ": one X span per task")
        (Chrome_trace.spans o.trace)
        (count "X");
      Alcotest.(check int) (name ^ ": flow start per spawn")
        o.m.Metrics.tasks_spawned (count "s");
      Alcotest.(check int) (name ^ ": flow finish per spawn")
        o.m.Metrics.tasks_spawned (count "f");
      Alcotest.(check int) (name ^ ": squash instants")
        o.m.Metrics.squashes (count "i");
      List.iter
        (fun e ->
          if ph e <> "M" then begin
            let ts = Json.to_int (Json.member "ts" e) in
            Alcotest.(check bool) (name ^ ": ts within run") true
              (ts >= 0 && ts <= o.m.Metrics.cycles);
            match ph e with
            | "X" ->
                let dur = Json.to_int (Json.member "dur" e) in
                Alcotest.(check bool) (name ^ ": span fits run") true
                  (dur >= 0 && ts + dur <= o.m.Metrics.cycles)
            | _ -> ()
          end)
        events;
      (* serializer/parser agree on the whole array *)
      Alcotest.(check bool) (name ^ ": json round-trip") true
        (Json.of_string (Json.to_string j) = j))

let test_counters_match_metrics () =
  iter_cases (fun name o ->
      let check_counter cname expected =
        match Counters.find o.counters cname with
        | None -> Alcotest.failf "%s: counter %s not registered" name cname
        | Some v ->
            Alcotest.(check int) (Printf.sprintf "%s: %s" name cname)
              expected v
      in
      check_counter "branch_mispredicts" o.m.Metrics.branch_mispredicts;
      check_counter "indirect_mispredicts" o.m.Metrics.indirect_mispredicts;
      check_counter "return_mispredicts" o.m.Metrics.return_mispredicts;
      check_counter "squashes" o.m.Metrics.squashes;
      check_counter "squashed_instrs" o.m.Metrics.squashed_instrs;
      check_counter "diverted" o.m.Metrics.diverted;
      check_counter "tasks_spawned" o.m.Metrics.tasks_spawned;
      (* monotone non-negative, dumped in registration order *)
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) (name ^ ": non-negative") true (v >= 0))
        (Counters.to_alist o.counters))

(* ---- Counters unit behaviour ---- *)

let test_counters_registry () =
  let t = Counters.create () in
  let a = Counters.make t "alpha" in
  let b = Counters.make t "beta" in
  Counters.incr a;
  Counters.add b 5;
  Counters.incr a;
  Alcotest.(check int) "alpha" 2 (Counters.value a);
  Alcotest.(check (option int)) "find beta" (Some 5) (Counters.find t "beta");
  Alcotest.(check (option int)) "find missing" None (Counters.find t "gamma");
  (* idempotent re-registration returns the same cell *)
  let a' = Counters.make t "alpha" in
  Counters.incr a';
  Alcotest.(check int) "shared cell" 3 (Counters.value a);
  Alcotest.(check (list (pair string int)))
    "registration order" [ ("alpha", 3); ("beta", 5) ]
    (Counters.to_alist t);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Counters.add: negative amount") (fun () ->
      Counters.add b (-1))

let test_sink_null_and_tee () =
  Alcotest.(check bool) "null is null" true (Sink.is_null Sink.null);
  let hits = ref 0 in
  let s =
    { Sink.null with
      on_retire = (fun ~cycle:_ ~slot:_ ~index:_ -> incr hits) }
  in
  Alcotest.(check bool) "derived sink is not null" false (Sink.is_null s);
  let t = Sink.tee s s in
  Alcotest.(check bool) "tee is not null" false (Sink.is_null t);
  t.Sink.on_retire ~cycle:0 ~slot:0 ~index:0;
  Alcotest.(check int) "tee forwards to both" 2 !hits;
  (* every reason code has a distinct name *)
  let names = List.init Sink.n_reasons Sink.reason_name in
  Alcotest.(check int) "names distinct" Sink.n_reasons
    (List.length (List.sort_uniq compare names))

let suite =
  [ ( "obs",
      [ case "sink parity: metrics unchanged" test_sink_parity;
        case "cpi rows sum to cycles" test_cpi_rows_sum_to_cycles;
        case "chrome: one span per task" test_chrome_span_per_task;
        case "chrome: trace event shape" test_chrome_trace_shape;
        case "counters agree with metrics" test_counters_match_metrics;
        case "counters registry behaviour" test_counters_registry;
        case "sink null and tee" test_sink_null_and_tee ] ) ]
