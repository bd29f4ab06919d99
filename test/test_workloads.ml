(* Tests for pf_workloads: every benchmark runs, is deterministic, has
   the control structures its paper role requires, and — for three of
   them — computes results that match independent OCaml oracles reading
   the same initialised memory. *)

open Pf_workloads

let case name f = Alcotest.test_case name `Quick f

let all = Suite.all ()

let find name = List.find (fun w -> w.Workload.name = name) all

(* ------------------------------------------------------------------ *)
(* Generic suite-wide checks                                           *)

let test_names_unique () =
  let names = List.map (fun w -> w.Workload.name) all in
  Alcotest.(check (list string))
    "12 kernels in figure order, then the loop-nest members"
    [ "bzip2"; "crafty"; "gap"; "gcc"; "gzip"; "mcf"; "parser"; "perlbmk";
      "twolf"; "vortex"; "vpr.place"; "vpr.route"; "loopnest.d0.unit.n1";
      "loopnest.d1.unit.n1"; "loopnest.d2.unit.n1"; "loopnest.d4.unit.n1";
      "loopnest.d8.unit.n1"; "loopnest.d2.strided.n1"; "loopnest.d2.ind.n1";
      "loopnest.d2.unit.n2"; "loopnest.d2.unit.n3" ]
    Suite.names;
  Alcotest.(check (list string)) "names agree with all ()" Suite.names names;
  Alcotest.(check (list string))
    "spec_names are the first twelve" (List.filteri (fun i _ -> i < 12) names)
    Suite.spec_names;
  (* 12 SPEC-shaped kernels + 9 registered loop-nest family members *)
  Alcotest.(check int) "twenty-one workloads" 21 (List.length names);
  Alcotest.(check int) "unique names" 21
    (List.length (List.sort_uniq compare names));
  Alcotest.(check int) "twelve SPEC kernels" 12 (List.length Suite.spec_names);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "spec kernel %s registered" n)
        true (List.mem n names))
    Suite.spec_names

let test_every_workload_runs_long_enough () =
  List.iter
    (fun w ->
      let m = Pf_isa.Machine.create w.Workload.program in
      w.Workload.setup m;
      let n =
        Pf_isa.Machine.skip m (w.Workload.fast_forward + w.Workload.window)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s covers fast-forward + window" w.Workload.name)
        (w.Workload.fast_forward + w.Workload.window)
        n)
    all

let test_every_workload_deterministic () =
  List.iter
    (fun w ->
      let capture () =
        let m = Pf_isa.Machine.create w.Workload.program in
        w.Workload.setup m;
        let tr = Pf_trace.Tracer.capture m ~fast_forward:500 ~window:2_000 in
        (tr.Pf_trace.Tracer.pc, tr.Pf_trace.Tracer.addr)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s trace is reproducible" w.Workload.name)
        true
        (capture () = capture ()))
    all

(* The control structures each benchmark's paper role requires. *)
let expected_categories =
  let open Pf_core.Spawn_point in
  [ ("bzip2", [ Loop_iter; Loop_ft; Hammock ]);
    ("crafty", [ Hammock; Other ]);
    ("gap", [ Proc_ft ]);
    ("gcc", [ Proc_ft; Hammock; Other; Loop_iter ]);
    ("gzip", [ Loop_iter; Loop_ft; Hammock ]);
    ("mcf", [ Hammock; Loop_iter ]);
    ("parser", [ Proc_ft; Loop_iter ]);
    ("perlbmk", [ Other; Loop_iter ]);
    ("twolf", [ Loop_iter; Loop_ft; Proc_ft; Hammock; Other ]);
    ("vortex", [ Proc_ft ]);
    ("vpr.place", [ Hammock; Loop_iter ]);
    ("vpr.route", [ Loop_iter; Loop_ft; Hammock ]) ]

let test_expected_spawn_categories () =
  List.iter
    (fun (name, cats) ->
      let w = find name in
      let spawns = Pf_core.Classify.spawn_points w.Workload.program in
      let present = List.map (fun s -> s.Pf_core.Spawn_point.category) spawns in
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s has %s spawn points" name
               (Pf_core.Spawn_point.category_name c))
            true (List.mem c present))
        cats)
    expected_categories

let test_perlbmk_has_indirect_jumps () =
  let w = find "perlbmk" in
  let p = w.Workload.program in
  let indirect = ref false in
  Array.iter
    (fun i -> if Pf_isa.Instr.is_indirect_jump i then indirect := true)
    p.Pf_isa.Program.code;
  Alcotest.(check bool) "dispatch uses an indirect jump" true !indirect

let test_gap_code_exceeds_l1i () =
  List.iter
    (fun name ->
      let w = find name in
      let bytes = 4 * Pf_isa.Program.length w.Workload.program in
      Alcotest.(check bool)
        (Printf.sprintf "%s code (%d bytes) exceeds the 8 KB L1I" name bytes)
        true (bytes > 8192))
    [ "gap"; "vortex" ]

(* ------------------------------------------------------------------ *)
(* Semantic oracles: run a workload to completion and compare its      *)
(* result with an independent OCaml computation over the same memory.  *)

let run_to_halt w =
  let m = Pf_isa.Machine.create w.Workload.program in
  w.Workload.setup m;
  m

let finish m =
  ignore (Pf_isa.Machine.run m ~max_instrs:5_000_000 ~on_event:ignore);
  Alcotest.(check bool) "halted" true (Pf_isa.Machine.halted m)

let test_mcf_oracle () =
  let w = find "mcf" in
  let m = run_to_halt w in
  (* recompute by walking the chain exactly as the kernel does; the mcf
     kernel never writes memory, so reading afterwards is equivalent *)
  let head_addr = w.Workload.result_addr + 8 in
  let start = Pf_isa.Machine.read_i64 m head_addr in
  let node = ref (Int64.to_int start) in
  let acc = ref 0L in
  for _ = 1 to 8000 do
    let v = Pf_isa.Machine.read_i64 m (!node + 8) in
    if Int64.logand v 3L = 0L then
      acc := Int64.add !acc (Int64.shift_right v 3)
    else acc := Int64.logxor !acc v;
    if Int64.logand v 7L < 3L then
      acc := Int64.add !acc (Pf_isa.Machine.read_i64 m (!node + 16));
    node := Int64.to_int (Pf_isa.Machine.read_i64 m !node)
  done;
  finish m;
  Alcotest.(check int64) "mcf result matches the oracle" !acc
    (Pf_isa.Machine.read_i64 m w.Workload.result_addr)

let test_bzip2_oracle () =
  let w = find "bzip2" in
  let m = run_to_halt w in
  (* snapshot the data array before running *)
  let data_base = w.Workload.result_addr + 8 in
  let data = Array.init 1024 (fun k -> Pf_isa.Machine.read_i64 m (data_base + (8 * k))) in
  let acc = ref 0L in
  for k = 0 to 6999 do
    let x = ref data.(k land 1023) in
    let run = ref 0 in
    while Int64.logand !x 1L = 1L && !run < 8 do
      x := Int64.shift_right !x 1;
      incr run
    done;
    if !run > 2 then acc := Int64.add !acc (Int64.of_int !run)
    else acc := Int64.logxor !acc !x
  done;
  finish m;
  Alcotest.(check int64) "bzip2 result matches the oracle" !acc
    (Pf_isa.Machine.read_i64 m w.Workload.result_addr)

let test_twolf_oracle () =
  let w = find "twolf" in
  let m = run_to_halt w in
  (* reconstruct the linked structure from initialised memory *)
  let rd a = Pf_isa.Machine.read_i64 m a in
  let head_addr = w.Workload.result_addr + 16 in
  (* globals: result, cost, head, new_mean, old_mean, ... in layout order *)
  let head = Int64.to_int (rd head_addr) in
  let new_mean = rd (head_addr + 8) and old_mean = rd (head_addr + 16) in
  (* collect the (xpos, newx, shadow) triple of every net in list order *)
  let nets = ref [] in
  let term = ref head in
  (* the nets region starts at the first term's first net; flag_init
     follows it immediately (24 terms x 5 slots x 32 bytes) *)
  let first_dim = Int64.to_int (rd (head + 8)) in
  let nets_base = ref (Int64.to_int (rd first_dim)) in
  let flag_init = !nets_base + (24 * 5 * 32) in
  term := head;
  while !term <> 0 do
    let dim = Int64.to_int (rd (!term + 8)) in
    let net = ref (Int64.to_int (rd dim)) in
    while !net <> 0 do
      let slot = (!net - !nets_base) / 32 in
      nets :=
        (rd (!net + 8), rd (!net + 24), rd (flag_init + (8 * slot))) :: !nets;
      net := Int64.to_int (rd !net)
    done;
    term := Int64.to_int (rd !term)
  done;
  let nets = List.rev !nets in
  let abs v = if Int64.compare v 0L < 0 then Int64.neg v else v in
  let cost = ref 0L in
  for rep = 0 to 199 do
    List.iter
      (fun (xpos, newx_field, shadow) ->
        let flag =
          Int64.logand (Int64.shift_right_logical shadow (rep land 31)) 3L = 0L
        in
        let newx = if flag then newx_field else xpos in
        let d1 = abs (Int64.sub newx new_mean) in
        let d2 = abs (Int64.sub xpos old_mean) in
        cost := Int64.sub (Int64.add !cost d1) d2)
      nets
  done;
  finish m;
  Alcotest.(check int64) "twolf cost matches the oracle" !cost
    (Pf_isa.Machine.read_i64 m w.Workload.result_addr)

(* Every workload is built from Mini source ([Workload.mini]), so each
   one is a differential test: interpret the source, run the compiled
   binary to completion, and compare every word of every user global.
   The interpreter sees the setup-initialised memory as [init_mem] (a
   snapshot of the non-zero words the setup wrote). *)
let test_all_workloads_match_interpreter () =
  List.iter
    (fun w ->
      match w.Workload.mini with
      | None -> Alcotest.failf "%s lost its Mini source" w.Workload.name
      | Some ast ->
          let compiled = Pf_mini.Compile.compile ast in
          let m = Pf_isa.Machine.create compiled.Pf_mini.Compile.program in
          w.Workload.setup m;
          let init_mem = ref [] in
          let top = Pf_isa.Machine.mem_size m - 8 in
          let a = ref 0 in
          while !a <= top do
            let v = Pf_isa.Machine.read_i64 m !a in
            if v <> 0L then init_mem := (!a, v) :: !init_mem;
            a := !a + 8
          done;
          let out =
            Pf_mini.Interp.run ~fuel:200_000_000 ~init_mem:!init_mem ast
          in
          ignore (Pf_isa.Machine.run m ~max_instrs:20_000_000 ~on_event:ignore);
          Alcotest.(check bool)
            (Printf.sprintf "%s halts" w.Workload.name)
            true
            (Pf_isa.Machine.halted m);
          let address_of = compiled.Pf_mini.Compile.address_of in
          List.iter
            (fun (g, size) ->
              let base = address_of g in
              if size = 8 then
                Alcotest.(check int64)
                  (Printf.sprintf "%s global %s" w.Workload.name g)
                  (out.Pf_mini.Interp.read_global g)
                  (Pf_isa.Machine.read_i64 m base)
              else
                for k = 0 to (size / 8) - 1 do
                  Alcotest.(check int64)
                    (Printf.sprintf "%s global %s word %d" w.Workload.name g k)
                    (out.Pf_mini.Interp.read_mem (base + (8 * k)))
                    (Pf_isa.Machine.read_i64 m (base + (8 * k)))
                done)
            ast.Pf_mini.Ast.globals)
    all

(* ------------------------------------------------------------------ *)
(* End-to-end simulation sanity on a reduced window                    *)

let spawn_order =
  Pf_core.Spawn_point.[ Loop_ft; Loop_iter; Other; Hammock; Proc_ft ]

let test_all_workloads_simulate () =
  (* run under the engine's self-check so counter accounting is validated
     across every workload *)
  let simulate = Pf_uarch.Run.simulate ~mode:Pf_uarch.Engine.Self_checked in
  List.iter
    (fun w ->
      let prep =
        Pf_uarch.Run.prepare w.Workload.program ~setup:w.Workload.setup
          ~fast_forward:1_000 ~window:6_000
      in
      let base = simulate prep ~policy:Pf_core.Policy.No_spawn in
      let ipc = Pf_uarch.Metrics.ipc base in
      Alcotest.(check bool)
        (Printf.sprintf "%s baseline IPC %.2f plausible" w.Workload.name ipc)
        true
        (ipc > 0.1 && ipc < 8.0);
      List.iter
        (fun policy ->
          let m = simulate prep ~policy in
          let what = w.Workload.name ^ " " ^ Pf_core.Policy.name policy in
          Alcotest.(check int)
            (what ^ " retires the window")
            base.Pf_uarch.Metrics.instructions
            m.Pf_uarch.Metrics.instructions;
          (* Metrics.spawns lists the categories that spawned, each once,
             in one fixed order *)
          let spawns = m.Pf_uarch.Metrics.spawns in
          let cats = List.map fst spawns in
          Alcotest.(check bool)
            (what ^ " spawn categories in order")
            true
            (cats = List.filter (fun c -> List.mem c cats) spawn_order
            && List.for_all (fun (_, n) -> n > 0) spawns);
          Alcotest.(check int)
            (what ^ " spawns sum to tasks spawned")
            m.Pf_uarch.Metrics.tasks_spawned
            (Pf_uarch.Metrics.total_spawns m))
        Pf_core.Policy.[ Postdoms; Adaptive ])
    all

(* Cross-module invariant: no simulated configuration can exceed the
   dataflow-oracle ILP limit (infinite window/FUs, L1-hit loads). *)
let test_engine_below_oracle_limit () =
  List.iter
    (fun w ->
      let prep =
        Pf_uarch.Run.prepare w.Workload.program ~setup:w.Workload.setup
          ~fast_forward:1_000 ~window:6_000
      in
      let oracle = Pf_trace.Limits.dataflow_ipc prep.Pf_uarch.Run.trace in
      List.iter
        (fun policy ->
          let m = Pf_uarch.Run.simulate prep ~policy in
          let ipc = Pf_uarch.Metrics.ipc m in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s IPC %.2f <= oracle %.2f" w.Workload.name
               (Pf_core.Policy.name policy) ipc oracle)
            true
            (ipc <= oracle +. 1e-6))
        [ Pf_core.Policy.No_spawn; Pf_core.Policy.Postdoms;
          Pf_core.Policy.Rec_pred ])
    all

(* ------------------------------------------------------------------ *)
(* The loop-nest family: every constructor parameter must yield a      *)
(* distinct workload. The run cache keys its digest on the workload    *)
(* name, so parameter-distinct names are what keeps a distance-4 nest  *)
(* from replaying a distance-0 nest's cached run.                      *)

let loopnest_combos =
  List.concat_map
    (fun distance ->
      List.concat_map
        (fun stride ->
          List.map (fun depth -> (distance, stride, depth)) [ 1; 2; 3 ])
        [ Loopnest.Unit; Loopnest.Strided; Loopnest.Indirect ])
    Loopnest.distances

let test_loopnest_names_key_every_parameter () =
  let names =
    List.map
      (fun (distance, stride, depth) -> Loopnest.name ~distance ~stride ~depth)
      loopnest_combos
  in
  Alcotest.(check int) "every distance/stride/depth combination named"
    (List.length loopnest_combos)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("stride name round trip: " ^ Loopnest.stride_name s)
        true
        (Loopnest.stride_of_name (Loopnest.stride_name s) = Some s))
    [ Loopnest.Unit; Loopnest.Strided; Loopnest.Indirect ]

let test_loopnest_programs_distinct () =
  (* a parameter that changed the name must also change the generated
     program: distance adds carried reads, stride rewrites the gather,
     depth restructures the nest *)
  let progs =
    List.map
      (fun (distance, stride, depth) ->
        ( Loopnest.name ~distance ~stride ~depth,
          Loopnest.program ~distance ~stride ~depth ))
      loopnest_combos
  in
  List.iteri
    (fun i (ni, pi) ->
      List.iteri
        (fun j (nj, pj) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s and %s generate different programs" ni nj)
              false (pi = pj))
        progs)
    progs

let test_loopnest_rejects_bad_parameters () =
  let rejects f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "carry span beyond the warm prefix rejected" true
    (rejects (fun () ->
         Loopnest.program ~distance:9 ~stride:Loopnest.Unit ~depth:1));
  Alcotest.(check bool) "negative carry span rejected" true
    (rejects (fun () ->
         Loopnest.program ~distance:(-1) ~stride:Loopnest.Unit ~depth:1));
  Alcotest.(check bool) "depth 4 rejected" true
    (rejects (fun () ->
         Loopnest.program ~distance:1 ~stride:Loopnest.Unit ~depth:4))

let test_loopnest_sweep_registered () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "sweep member %s registered in the suite" n)
        true
        (Suite.find n <> None))
    Loopnest.sweep_names;
  (* the distance sweep must cover a DOALL nest and a far carry *)
  Alcotest.(check bool) "sweep starts at distance 0" true
    (List.mem "loopnest.d0.unit.n1" Loopnest.sweep_names);
  Alcotest.(check bool) "sweep reaches distance 8" true
    (List.mem "loopnest.d8.unit.n1" Loopnest.sweep_names)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_bool_p_bias () =
  let r = Rng.create ~seed:11 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool_p r 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. 10_000. in
  Alcotest.(check bool)
    (Printf.sprintf "p=0.3 draw frequency %.3f" frac)
    true
    (frac > 0.25 && frac < 0.35)

let test_fill_permutation_is_cycle () =
  let w = find "mcf" in
  let m = Pf_isa.Machine.create w.Workload.program in
  let rng = Rng.create ~seed:99 in
  Workload.fill_permutation rng m ~base:0x200000 ~slots:64 ~stride:16;
  (* following the chain must visit all 64 slots and return to start *)
  let seen = Hashtbl.create 64 in
  let node = ref 0x200000 in
  let steps = ref 0 in
  while not (Hashtbl.mem seen !node) && !steps <= 64 do
    Hashtbl.replace seen !node ();
    node := Int64.to_int (Pf_isa.Machine.read_i64 m !node);
    incr steps
  done;
  Alcotest.(check int) "cycle covers all slots" 64 (Hashtbl.length seen);
  Alcotest.(check bool) "back at a visited slot" true (Hashtbl.mem seen !node)

(* ------------------------------------------------------------------ *)
(* The registry: one value per workload, shared by every caller        *)

let test_find_is_shared () =
  List.iter
    (fun n ->
      let w = Option.get (Suite.find n) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: find returns one physical value" n)
        true
        (w == Option.get (Suite.find n));
      Alcotest.(check bool)
        (Printf.sprintf "%s: find returns the element of all ()" n)
        true
        (List.exists (fun w' -> w' == w) (Suite.all ())))
    Suite.names;
  Alcotest.(check bool) "unknown name" true (Suite.find "vortex2" = None)

(* Sweep workers and daemon threads prepare the one shared value at
   once; each must see exactly what a solo preparation produces. *)
let test_shared_value_concurrent_prepare () =
  let w = Option.get (Suite.find "vortex") in
  let prepare ?store () =
    Pf_uarch.Run.prepare ?store w.Workload.program ~setup:w.Workload.setup
      ~fast_forward:w.Workload.fast_forward ~window:4_000
  in
  let postdoms prep = Pf_uarch.Run.simulate prep ~policy:Pf_core.Policy.Postdoms in
  let solo = prepare () in
  let solo_metrics = postdoms solo in
  let dir = Filename.temp_dir "pf_registry" "" in
  let store = Pf_trace.Trace_store.create ~dir () in
  let results =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let prep = prepare ~store () in
            (prep.Pf_uarch.Run.trace, postdoms prep)))
    |> List.map Domain.join
  in
  List.iteri
    (fun k (trace, metrics) ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d: window equals a solo prepare" k)
        true
        (trace = solo.Pf_uarch.Run.trace);
      Alcotest.(check bool)
        (Printf.sprintf "domain %d: postdoms metrics equal a solo run" k)
        true (metrics = solo_metrics))
    results;
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  rm_rf dir

(* A prepared window is its columns (75 bytes per instruction), the
   occurrence index and the spawn list. Recording each instruction a
   second time, as a record per dynamic instruction, would double it. *)
let test_prepared_window_bytes () =
  List.iter
    (fun name ->
      let w = Option.get (Suite.find name) in
      let window = 60_000 in
      let prep =
        Pf_uarch.Run.prepare w.Workload.program ~setup:w.Workload.setup
          ~fast_forward:w.Workload.fast_forward ~window
      in
      let words =
        Obj.reachable_words (Obj.repr prep)
        - Obj.reachable_words (Obj.repr prep.Pf_uarch.Run.program)
      in
      let per_instr =
        float_of_int (words * (Sys.word_size / 8)) /. float_of_int window
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f bytes per instruction <= 90" name per_instr)
        true (per_instr <= 90.))
    Suite.spec_names

let suite =
  [ ( "workloads.suite",
      [ case "names unique" test_names_unique;
        case "every workload runs long enough" test_every_workload_runs_long_enough;
        case "traces reproducible" test_every_workload_deterministic;
        case "expected spawn categories" test_expected_spawn_categories;
        case "perlbmk uses indirect jumps" test_perlbmk_has_indirect_jumps;
        case "gap/vortex exceed the L1I" test_gap_code_exceeds_l1i;
        case "all workloads simulate" test_all_workloads_simulate;
        case "all workloads match the interpreter"
          test_all_workloads_match_interpreter;
        case "a prepared 60k window holds <= 90 bytes per instruction"
          test_prepared_window_bytes ] );
    ( "workloads.oracles",
      [ case "engine below oracle limit" test_engine_below_oracle_limit;
        case "mcf result" test_mcf_oracle;
        case "bzip2 result" test_bzip2_oracle;
        case "twolf cost" test_twolf_oracle ] );
    ( "workloads.loopnest",
      [ case "names key every parameter" test_loopnest_names_key_every_parameter;
        case "programs distinct across parameters"
          test_loopnest_programs_distinct;
        case "bad parameters rejected" test_loopnest_rejects_bad_parameters;
        case "distance sweep registered" test_loopnest_sweep_registered ] );
    ( "workloads.registry",
      [ case "find returns the shared value" test_find_is_shared;
        case "concurrent prepares of one shared value"
          test_shared_value_concurrent_prepare ] );
    ( "workloads.rng",
      [ case "deterministic" test_rng_determinism;
        case "int bounds" test_rng_int_bounds;
        case "bool_p bias" test_rng_bool_p_bias;
        case "permutation is one cycle" test_fill_permutation_is_cycle ] ) ]
