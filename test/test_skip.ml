(* Skip parity: the event-skipping cycle loop (stall-skip to the next
   scheduled event, plus the ready_at / drain_blocker sweep caches) is a
   pure optimisation. [Config.no_event_skip] forces the engine back to
   one-cycle-at-a-time stepping; against that reference build the
   optimised loop must produce bit-identical

     - metrics (every field, cycles included),
     - the full retire stream, with per-retire cycle and slot,
     - the CPI-stack rows (cycle accounting per slot and reason), and
     - the named counter registry,

   for every policy class. The property runs over the pf_fuzz program
   generators (fresh control flow every seed) and over a real workload
   window, so both synthetic and realistic schedules are covered. *)

open Pf_uarch
module Policy = Pf_core.Policy
module Sink = Pf_obs.Sink
module Cpi_stack = Pf_obs.Cpi_stack
module Counters = Pf_obs.Counters

let window = 2_500
let max_instrs = 6_000_000

(* One class per policy constructor, as the fuzz oracle uses. *)
let all_policies = Pf_fuzz.Oracle.all_policies

type observed = {
  metrics : Metrics.t;
  retires : string;  (* "cycle:slot:index;" per retirement, in order *)
  cpi_rows : int array array;
  counters : (string * int) list;
}

let observe prep ~policy ~config =
  let retires = Buffer.create 1024 in
  let cpi = Cpi_stack.create () in
  let counters = Counters.create () in
  let sink =
    Sink.tee (Cpi_stack.sink cpi)
      { Sink.null with
        on_retire =
          (fun ~cycle ~slot ~index ->
            Buffer.add_string retires
              (Printf.sprintf "%d:%d:%d;" cycle slot index)) }
  in
  let metrics = Run.simulate ~sink ~counters ~config prep ~policy in
  { metrics;
    retires = Buffer.contents retires;
    cpi_rows = Array.init (Cpi_stack.slots cpi) (Cpi_stack.row cpi);
    counters = Counters.to_alist counters }

(* Compare skipping-on vs the [no_event_skip] reference for one policy;
   [fail] receives a component name and the two runs' cycle counts. *)
let compare_policy prep ~policy ~(fail : string -> int -> int -> 'a) =
  (* [Run.simulate]'s per-policy default, made explicit so both runs of
     the pair share the same base configuration *)
  let base = Config.for_policy policy in
  let skip = observe prep ~policy ~config:base in
  let ref_ =
    observe prep ~policy ~config:{ base with Config.no_event_skip = true }
  in
  let cycles o = o.metrics.Metrics.cycles in
  let bad what = fail what (cycles skip) (cycles ref_) in
  if skip.metrics <> ref_.metrics then bad "metrics";
  if skip.retires <> ref_.retires then bad "retire stream";
  if skip.cpi_rows <> ref_.cpi_rows then bad "CPI rows";
  if skip.counters <> ref_.counters then bad "counters"

(* ------------------------------------------------------------------ *)
(* qcheck over the fuzz generators                                     *)

let prepare_program program =
  (* cap the window at the program's dynamic length, as the oracle does *)
  let m = Pf_isa.Machine.create program in
  let (_ : int) = Pf_isa.Machine.run m ~max_instrs ~on_event:ignore in
  Run.prepare program
    ~setup:(fun _ -> ())
    ~fast_forward:0
    ~window:(min window (Pf_isa.Machine.icount m))

(* [fail] receives the report of the first differing component. *)
let check_seed ~gen ~seed ~fail =
  let program =
    match gen with
    | `Mini ->
        (Pf_fuzz.Gen_mini.generate ~seed () |> Pf_mini.Compile.compile)
          .Pf_mini.Compile.program
    | `Asm -> Pf_fuzz.Gen_asm.generate ~seed
  in
  let prep = prepare_program program in
  List.iter
    (fun policy ->
      compare_policy prep ~policy ~fail:(fun what c_skip c_ref ->
          fail
            (Printf.sprintf
               "seed %d, policy %s: %s differ between the event-skipping \
                engine (%d cycles) and no_event_skip (%d cycles)"
               seed (Policy.name policy) what c_skip c_ref)))
    all_policies

let holds_for ~gen ~seed =
  check_seed ~gen ~seed ~fail:QCheck.Test.fail_report;
  true

let prop_mini =
  QCheck.Test.make ~name:"event skipping is invisible on mini programs"
    ~count:5
    QCheck.(int_range 1 100_000)
    (fun seed -> holds_for ~gen:`Mini ~seed)

let prop_asm =
  QCheck.Test.make ~name:"event skipping is invisible on asm programs"
    ~count:5
    QCheck.(int_range 1 100_000)
    (fun seed -> holds_for ~gen:`Asm ~seed)

(* Mini seeds that once diverged under postdoms and postdoms-hammock:
   fetch could pick only tasks that then missed in the I-cache, and the
   cycle counted as dead, so the skip jumped past the cycle where an
   unchosen, still-fetchable task would have fetched. *)
let regression_seeds = [ 196; 238; 608; 878; 64332 ]

let test_regression_seeds () =
  List.iter
    (fun seed -> check_seed ~gen:`Mini ~seed ~fail:Alcotest.fail)
    regression_seeds

(* ------------------------------------------------------------------ *)
(* A real workload window, every policy class                          *)

let test_workload name () =
  let wl = Option.get (Pf_workloads.Suite.find name) in
  let prep =
    Run.prepare wl.Pf_workloads.Workload.program
      ~setup:wl.Pf_workloads.Workload.setup
      ~fast_forward:wl.Pf_workloads.Workload.fast_forward ~window:4_000
  in
  List.iter
    (fun policy ->
      compare_policy prep ~policy ~fail:(fun what c_skip c_ref ->
          Alcotest.failf
            "%s, policy %s: %s differ between the event-skipping engine \
             (%d cycles) and no_event_skip (%d cycles)"
            name (Policy.name policy) what c_skip c_ref))
    all_policies

let suite =
  [ ( "skip-parity",
      [ Prop.to_alcotest prop_mini;
        Prop.to_alcotest prop_asm;
        Alcotest.test_case "mini regression seeds, all policy classes" `Quick
          test_regression_seeds;
        Alcotest.test_case "gzip window, all policy classes" `Quick
          (test_workload "gzip") ] ) ]
