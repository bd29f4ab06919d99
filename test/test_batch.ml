(* Batch parity: [Run.simulate_batch] runs N policy/config members of
   the same prepared window one after another. Against per-member
   [Run.simulate] reference runs, the batch must produce bit-identical

     - metrics (every field, cycles included),
     - the full retire stream, with per-retire cycle and slot,
     - the CPI-stack rows (cycle accounting per slot and reason), and
     - the named counter registry,

   for every policy class, in any member order, with each member's own
   sink and counters routed to it. The property runs over the pf_fuzz
   program generators (fresh control flow every seed) and a real
   workload window. *)

open Pf_uarch
module Policy = Pf_core.Policy
module Sink = Pf_obs.Sink
module Cpi_stack = Pf_obs.Cpi_stack
module Counters = Pf_obs.Counters

let window = 2_500
let max_instrs = 6_000_000
let all_policies = Pf_fuzz.Oracle.all_policies

type observed = {
  metrics : Metrics.t;
  retires : string;  (* "cycle:slot:index;" per retirement, in order *)
  cpi_rows : int array array;
  counters : (string * int) list;
}

(* The observability harness of one run: a retire-stream buffer, a CPI
   stack and a counter registry, assembled into a [batch_run] and read
   back once its metrics are in. *)
let instrument ~config policy =
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
  let br = Run.batch_run ~sink ~counters ~config policy in
  let read metrics =
    { metrics;
      retires = Buffer.contents retires;
      cpi_rows = Array.init (Cpi_stack.slots cpi) (Cpi_stack.row cpi);
      counters = Counters.to_alist counters }
  in
  (br, read)

let observe_solo prep ~policy ~config =
  let br, read = instrument ~config policy in
  read (Run.simulate ~sink:br.Run.br_sink ~counters:(Option.get br.Run.br_counters)
          ~config prep ~policy)

let observe_batch prep members =
  let instrumented =
    List.map (fun (policy, config) -> instrument ~config policy) members
  in
  let metrics = Run.simulate_batch prep (List.map fst instrumented) in
  List.map2 (fun (_, read) m -> read m) instrumented metrics

(* Deterministic member shuffle — a tiny LCG keyed by [seed], so a
   failing seed replays the exact member order. *)
let shuffle seed l =
  let state = ref (seed * 2654435761 land 0x3FFFFFFF) in
  let next n =
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    !state mod n
  in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = next (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Every policy class on its default machine plus a duplicated member
   (two Postdoms runs in one batch must both match the solo run),
   shuffled by seed. *)
let members_for seed =
  shuffle seed
    (List.map
       (fun p -> (p, Config.for_policy p))
       (Policy.Postdoms :: all_policies))

let compare_members prep ~members ~(fail : int -> string -> 'a) =
  let batch = observe_batch prep members in
  List.iteri
    (fun i ((policy, config), b) ->
      let solo = observe_solo prep ~policy ~config in
      if b.metrics <> solo.metrics then fail i "metrics";
      if b.retires <> solo.retires then fail i "retire stream";
      if b.cpi_rows <> solo.cpi_rows then fail i "CPI rows";
      if b.counters <> solo.counters then fail i "counters")
    (List.combine members batch)

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

let holds_for ~gen ~seed =
  let program =
    match gen with
    | `Mini ->
        (Pf_fuzz.Gen_mini.generate ~seed () |> Pf_mini.Compile.compile)
          .Pf_mini.Compile.program
    | `Asm -> Pf_fuzz.Gen_asm.generate ~seed
  in
  let prep = prepare_program program in
  let members = members_for seed in
  compare_members prep ~members ~fail:(fun i what ->
      let policy, _ = List.nth members i in
      QCheck.Test.fail_reportf
        "%s seed %d, member %d (%s): %s differ between simulate_batch and \
         sequential simulate"
        (match gen with `Mini -> "mini" | `Asm -> "asm")
        seed i (Policy.name policy) what);
  true

(* each seed draws one program from each generator *)
let prop_fuzz =
  QCheck.Test.make ~name:"fuzz programs, shuffled" ~count:5
    QCheck.(int_range 1 100_000)
    (fun seed -> holds_for ~gen:`Mini ~seed && holds_for ~gen:`Asm ~seed)

(* ------------------------------------------------------------------ *)
(* A real workload window, every policy class in one batch             *)

let prepare_workload name ~window =
  let wl = Option.get (Pf_workloads.Suite.find name) in
  Run.prepare wl.Pf_workloads.Workload.program
    ~setup:wl.Pf_workloads.Workload.setup
    ~fast_forward:wl.Pf_workloads.Workload.fast_forward ~window

let test_workload name () =
  let prep = prepare_workload name ~window:4_000 in
  let members = members_for 2 in
  compare_members prep ~members ~fail:(fun i what ->
      let policy, _ = List.nth members i in
      Alcotest.failf
        "%s, member %d (%s): %s differ between simulate_batch and \
         sequential simulate"
        name i (Policy.name policy) what)

(* ------------------------------------------------------------------ *)
(* Degenerate batches                                                  *)

let test_degenerate () =
  let prep = prepare_workload "gzip" ~window:2_000 in
  Alcotest.(check int)
    "empty batch" 0
    (List.length (Run.simulate_batch prep []));
  let solo = Run.simulate prep ~policy:Policy.Postdoms in
  match Run.simulate_batch prep [ Run.batch_run Policy.Postdoms ] with
  | [ m ] -> if m <> solo then Alcotest.fail "singleton batch differs from solo"
  | _ -> Alcotest.fail "singleton batch arity"

let suite =
  [ ( "batch-parity",
      [ Prop.to_alcotest prop_fuzz;
        Alcotest.test_case "gzip window, all policy classes" `Quick
          (test_workload "gzip");
        Alcotest.test_case "degenerate batches" `Quick test_degenerate ] ) ]
