module Machine = Pf_isa.Machine
module Tracer = Pf_trace.Tracer
module Policy = Pf_core.Policy
module Spawn_point = Pf_core.Spawn_point
module Run = Pf_uarch.Run
module Config = Pf_uarch.Config
module Metrics = Pf_uarch.Metrics
module Sink = Pf_obs.Sink
module Cpi_stack = Pf_obs.Cpi_stack
module Counters = Pf_obs.Counters

type failure = { oracle : string; detail : string }
type outcome = Pass | Fail of failure

let fail oracle fmt = Printf.ksprintf (fun detail -> Fail { oracle; detail }) fmt

let all_policies =
  [ Policy.No_spawn;
    Policy.Postdoms;
    Policy.Postdoms_minus Spawn_point.Hammock;
    Policy.Categories [ Spawn_point.Loop_iter; Spawn_point.Proc_ft ];
    Policy.Rec_pred;
    Policy.Dmt;
    Policy.Adaptive;
    Policy.Doacross ]

let max_instrs = 6_000_000
let interp_fuel = 20_000_000

(* Counter-registry names that mirror a [Metrics.t] field. *)
let counter_fields (m : Metrics.t) =
  [ ("branch_mispredicts", m.branch_mispredicts);
    ("indirect_mispredicts", m.indirect_mispredicts);
    ("return_mispredicts", m.return_mispredicts);
    ("squashes", m.squashes);
    ("squashed_instrs", m.squashed_instrs);
    ("diverted", m.diverted);
    ("tasks_spawned", m.tasks_spawned);
    ("stall_frontend", m.stall_frontend);
    ("stall_divert", m.stall_divert);
    ("stall_sched", m.stall_sched);
    ("stall_exec", m.stall_exec) ]

(* ------------------------------------------------------------------ *)
(* Engine checks: one prepared window, every policy class.             *)

exception Stop of failure

let check_one_policy prep ~n ~policy =
  let pname = Policy.name policy in
  let next = ref 0 and order_ok = ref true in
  let starts = ref 0 and ends = ref 0 in
  let cpi = Cpi_stack.create () in
  let counters = Counters.create () in
  let sink =
    Sink.tee (Cpi_stack.sink cpi)
      { Sink.null with
        on_retire =
          (fun ~cycle:_ ~slot:_ ~index ->
            if index <> !next then order_ok := false;
            incr next);
        on_task_start =
          (fun ~cycle:_ ~slot:_ ~task:_ ~parent_slot:_ ~at_pc:_ -> incr starts);
        on_task_end = (fun ~cycle:_ ~slot:_ ~task:_ -> incr ends) }
  in
  let m = Run.simulate ~sink ~counters prep ~policy in
  if m.Metrics.instructions <> n then
    raise
      (Stop
         { oracle = "engine-retire-count";
           detail =
             Printf.sprintf "policy %s: retired %d of a %d-instruction window"
               pname m.Metrics.instructions n });
  if (not !order_ok) || !next <> n then
    raise
      (Stop
         { oracle = "engine-retire-order";
           detail =
             Printf.sprintf
               "policy %s: retirement stream is not the window in order \
                (saw %d retires%s)"
               pname !next
               (if !order_ok then "" else ", out of order") });
  if !starts <> !ends then
    raise
      (Stop
         { oracle = "obs-slot-leak";
           detail =
             Printf.sprintf "policy %s: %d task starts but %d task ends" pname
               !starts !ends });
  for s = 0 to Cpi_stack.slots cpi - 1 do
    let t = Cpi_stack.slot_total cpi s in
    if t <> m.Metrics.cycles then
      raise
        (Stop
           { oracle = "obs-cpi-sum";
             detail =
               Printf.sprintf
                 "policy %s: CPI slot %d rows sum to %d, run took %d cycles"
                 pname s t m.Metrics.cycles })
  done;
  List.iter
    (fun (name, metric) ->
      match Counters.find counters name with
      | Some v when v <> metric ->
          raise
            (Stop
               { oracle = "obs-counter-drift";
                 detail =
                   Printf.sprintf
                     "policy %s: counter %s = %d but Metrics says %d" pname
                     name v metric })
      | _ -> ())
    (counter_fields m);
  (* memory-tracker oracles. The safety filter belongs to [Adaptive]
     alone: its level counters must be zero for every other policy. The
     tracker runs wherever the policy's default machine turns it on
     ([Adaptive], and [Doacross] for far iteration carries); every other
     policy must keep [mem_violations] at zero too. For the tracker
     policies the CPI stack must still sum exactly to run cycles with
     the [mem_violation] row included (the obs-cpi-sum check above
     already walked every row), every violation must have produced a
     squash, and a PF_CHECK'd re-run must reproduce the same metrics
     while the engine self-check validates the CAM's live counts and
     that freed task slots hold no stale entries after each squash. *)
  let counter name = Option.value ~default:0 (Counters.find counters name) in
  let uses_tracker = (Config.for_policy policy).Config.mem_tracker in
  let zero_counters =
    (if uses_tracker then [] else [ "mem_violations" ])
    @
    if Policy.uses_safety_filter policy then []
    else [ "level_bypass"; "level_conservative"; "level_optimistic" ]
  in
  List.iter
    (fun name ->
      if counter name <> 0 then
        raise
          (Stop
             { oracle = "mem-tracker-isolation";
               detail =
                 Printf.sprintf
                   "policy %s: counter %s = %d but the policy runs at a \
                    fixed speculation level"
                   pname name (counter name) }))
    zero_counters;
  if uses_tracker then begin
    if counter "mem_violations" > m.Metrics.squashes then
      raise
        (Stop
           { oracle = "mem-tracker-squash";
             detail =
               Printf.sprintf
                 "policy %s: %d memory violations but only %d squashes" pname
                 (counter "mem_violations") m.Metrics.squashes });
    let old = Sys.getenv_opt "PF_CHECK" in
    Unix.putenv "PF_CHECK" "1";
    let m_checked =
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv "PF_CHECK" (Option.value old ~default:""))
        (fun () -> Run.simulate prep ~policy)
    in
    if m <> m_checked then
      raise
        (Stop
           { oracle = "mem-tracker-check";
             detail =
               Printf.sprintf
                 "policy %s: metrics differ under PF_CHECK (cycles %d vs %d)"
                 pname m.Metrics.cycles m_checked.Metrics.cycles })
  end;
  (* a second, sink-less run: proves determinism and that observability
     never feeds back into timing *)
  let counters2 = Counters.create () in
  let m2 = Run.simulate ~counters:counters2 prep ~policy in
  if m <> m2 then
    raise
      (Stop
         { oracle = "engine-determinism";
           detail =
             Printf.sprintf
               "policy %s: metrics differ between a sinked and a bare run \
                (cycles %d vs %d)"
               pname m.Metrics.cycles m2.Metrics.cycles });
  if Counters.to_alist counters <> Counters.to_alist counters2 then
    raise
      (Stop
         { oracle = "engine-determinism";
           detail =
             Printf.sprintf "policy %s: counter registries differ between runs"
               pname });
  m

let jobs_parity prep ~policies ~sequential =
  (* the sweep harness's --jobs N: simulate the same prepared window
     from multiple domains and demand identical metrics *)
  let arr = Array.of_list policies in
  let k = Array.length arr in
  let results = Array.make k None in
  let half = k / 2 in
  let work lo hi =
    for i = lo to hi - 1 do
      results.(i) <- Some (Run.simulate prep ~policy:arr.(i))
    done
  in
  let d1 = Domain.spawn (fun () -> work 0 half) in
  let d2 = Domain.spawn (fun () -> work half k) in
  Domain.join d1;
  Domain.join d2;
  let rec check i = function
    | [] -> Pass
    | m_seq :: rest -> (
        match results.(i) with
        | Some m_par when m_par = m_seq -> check (i + 1) rest
        | Some m_par ->
            fail "engine-jobs-parity"
              "policy %s: cycles %d under --jobs 2 vs %d under --jobs 1"
              (Policy.name arr.(i)) m_par.Metrics.cycles m_seq.Metrics.cycles
        | None ->
            fail "engine-jobs-parity" "policy %s: no parallel result"
              (Policy.name arr.(i)))
  in
  check 0 sequential

let engine_checks program ~setup ~policies ~window =
  match Run.prepare program ~setup ~fast_forward:0 ~window with
  | exception Invalid_argument m -> fail "engine-prepare" "%s" m
  | exception Failure m -> fail "engine-check" "%s" m
  | prep -> (
      let n = Tracer.length prep.Run.trace in
      match List.map (fun policy -> check_one_policy prep ~n ~policy) policies with
      | exception Stop f -> Fail f
      | exception Failure m ->
          (* engine watchdog or PF_CHECK self-check *)
          fail "engine-check" "%s" m
      | sequential -> (
          match jobs_parity prep ~policies ~sequential with
          | exception Failure m -> fail "engine-check" "%s" m
          | outcome -> outcome))

(* ------------------------------------------------------------------ *)
(* Mini: interpreter vs machine, then the engine checks.               *)

let check_mini ?(policies = all_policies) ?(window = 12_000) p =
  match Pf_mini.Compile.compile p with
  | exception Invalid_argument m -> fail "compile" "%s" m
  | compiled -> (
      match Pf_mini.Interp.run ~fuel:interp_fuel p with
      | exception Invalid_argument m -> fail "interp" "%s" m
      | out -> (
          let m = Machine.create compiled.Pf_mini.Compile.program in
          let (_ : int) = Machine.run m ~max_instrs ~on_event:ignore in
          if not (Machine.halted m) then
            fail "machine-halt" "machine still running after %d instructions"
              max_instrs
          else
            let address_of = compiled.Pf_mini.Compile.address_of in
            let mismatch =
              List.find_map
                (fun (g, size) ->
                  let base = address_of g in
                  if size = 8 then
                    let mv = Machine.read_i64 m base in
                    let iv = out.Pf_mini.Interp.read_global g in
                    if mv <> iv then
                      Some
                        (Printf.sprintf
                           "global %s: interp %Ld, machine %Ld" g iv mv)
                    else None
                  else
                    let rec words k =
                      if k * 8 >= size then None
                      else
                        let a = base + (k * 8) in
                        let mv = Machine.read_i64 m a in
                        let iv = out.Pf_mini.Interp.read_mem a in
                        if mv <> iv then
                          Some
                            (Printf.sprintf
                               "global %s word %d: interp %Ld, machine %Ld" g
                               k iv mv)
                        else words (k + 1)
                    in
                    words 0)
                p.Pf_mini.Ast.globals
            in
            match mismatch with
            | Some detail -> Fail { oracle = "interp-vs-machine"; detail }
            | None ->
                engine_checks compiled.Pf_mini.Compile.program
                  ~setup:(fun _ -> ())
                  ~policies
                  ~window:(min window (Machine.icount m))))

(* ------------------------------------------------------------------ *)
(* Asm: machine determinism, trace transparency, engine checks.        *)

let scratch_words m =
  Array.init Gen_asm.scratch_slots (fun k ->
      Machine.read_i64 m (Gen_asm.scratch_base + (k * 8)))

let run_plain program =
  let m = Machine.create program in
  let (_ : int) = Machine.run m ~max_instrs ~on_event:ignore in
  m

let check_asm ?(policies = all_policies) ?(window = 12_000) program =
  let m1 = run_plain program in
  if not (Machine.halted m1) then
    fail "machine-halt" "machine still running after %d instructions" max_instrs
  else
    let m2 = run_plain program in
    if Machine.icount m1 <> Machine.icount m2 then
      fail "machine-determinism" "icount %d vs %d across identical runs"
        (Machine.icount m1) (Machine.icount m2)
    else if scratch_words m1 <> scratch_words m2 then
      fail "machine-determinism" "final scratch memory differs across runs"
    else
      (* a run interrupted by the tracer must end in the same state *)
      let mt = Machine.create program in
      let window = min window (Machine.icount m1) in
      let (_ : Tracer.t) = Tracer.capture mt ~fast_forward:0 ~window in
      let (_ : int) = Machine.run mt ~max_instrs ~on_event:ignore in
      if not (Machine.halted mt) then
        fail "trace-transparency" "machine did not halt after a traced prefix"
      else if scratch_words mt <> scratch_words m1 then
        fail "trace-transparency"
          "final scratch memory differs after Tracer.capture"
      else
        engine_checks program ~setup:(fun _ -> ()) ~policies ~window
