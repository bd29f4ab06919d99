(* Reconvergence-predictor demo (Section 2.4 / 4.4): train the dynamic
   predictor on a workload's retirement stream and compare what it learns
   against the compiler's immediate postdominators.

   Run with: dune exec examples/recpred_demo.exe -- [workload] *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "twolf" in
  let wl =
    match Pf_workloads.Suite.find name with
    | Some wl -> wl
    | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 1
  in
  let program = wl.Pf_workloads.Workload.program in
  (* ground truth: branch pc -> ipostdom target from the compiler *)
  let truth = Hashtbl.create 64 in
  List.iter
    (fun (s : Pf_core.Spawn_point.t) ->
      let open Pf_isa in
      let instr = Program.fetch program s.Pf_core.Spawn_point.at_pc in
      if Instr.is_cond_branch instr || Instr.is_indirect_jump instr then
        Hashtbl.replace truth s.Pf_core.Spawn_point.at_pc
          s.Pf_core.Spawn_point.target_pc)
    (Pf_core.Classify.spawn_points program);

  (* train on the retirement stream (here: the architectural stream) *)
  let predictor = Pf_predict.Reconvergence.create () in
  let machine = Pf_isa.Machine.create program in
  wl.Pf_workloads.Workload.setup machine;
  ignore (Pf_isa.Machine.skip machine wl.Pf_workloads.Workload.fast_forward);
  let trained = ref 0 in
  let checkpoints = [ 1_000; 5_000; 20_000; 60_000 ] in
  Printf.printf "workload: %s\n\n" name;
  Printf.printf "%10s %10s %10s %10s %10s\n" "instrs" "observed" "learned"
    "agree" "disagree";
  print_endline (String.make 56 '-');
  List.iter
    (fun target ->
      let budget = target - !trained in
      ignore
        (Pf_isa.Machine.run machine ~max_instrs:budget ~on_event:(fun ev ->
             Pf_predict.Reconvergence.retire predictor ~pc:ev.Pf_isa.Machine.pc
               ~kind:(Pf_isa.Instr.kind ev.Pf_isa.Machine.instr)));
      trained := target;
      (* compare predictions against the compiler's ipostdoms *)
      let agree = ref 0 and disagree = ref 0 in
      Hashtbl.iter
        (fun branch_pc ipostdom ->
          match Pf_predict.Reconvergence.predict predictor ~branch_pc with
          | Some r when r = ipostdom -> incr agree
          | Some _ -> incr disagree
          | None -> ())
        truth;
      Printf.printf "%10d %10d %10d %10d %10d\n" target
        (Pf_predict.Reconvergence.observed_branches predictor)
        (Pf_predict.Reconvergence.learned_branches predictor)
        !agree !disagree)
    checkpoints;
  print_endline
    "\nThe predictor converges on the immediate postdominators of most\n\
     branches after a few thousand retired instructions; the remainder are\n\
     the warm-up and hard-to-identify cases Figure 12 pays for."
