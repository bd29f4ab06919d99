open Pf_cfg

let of_proc (pcfg : Pf_isa.Cfg_build.t) =
  let cfg = pcfg.Pf_isa.Cfg_build.cfg in
  let blocks = pcfg.Pf_isa.Cfg_build.blocks in
  let exit_id = pcfg.Pf_isa.Cfg_build.exit_id in
  let pdom = Dominance.postdominators cfg in
  let dom = Dominance.dominators cfg in
  let loops = Loops.detect cfg dom in
  let live = Cfg.reachable cfg in
  let spawns = ref [] in
  let add at target category =
    spawns := { Spawn_point.at_pc = at; target_pc = target; category } :: !spawns
  in
  (* ipostdom-based spawns for branching blocks *)
  Array.iter
    (fun (b : Pf_isa.Cfg_build.block_info) ->
      if b.Pf_isa.Cfg_build.id <> exit_id && live.(b.Pf_isa.Cfg_build.id) then
        match Dominance.parent pdom b.Pf_isa.Cfg_build.id with
        | Some j when j <> exit_id -> (
            let target = blocks.(j).Pf_isa.Cfg_build.first_pc in
            let bid = b.Pf_isa.Cfg_build.id in
            match b.Pf_isa.Cfg_build.term with
            | Pf_isa.Cfg_build.Term_branch _ ->
                let category =
                  let in_same_loop =
                    match Loops.innermost loops bid with
                    | Some l -> Loops.in_loop l j
                    | None -> true (* both outside any loop *)
                  in
                  (* a simple hammock is a pure if-then/if-then-else: its
                     interior must also be free of calls, returns and
                     indirect jumps (a switch bounds-check is not an if) *)
                  let interior_plain () =
                    List.for_all
                      (fun x ->
                        match blocks.(x).Pf_isa.Cfg_build.term with
                        | Pf_isa.Cfg_build.Term_branch _
                        | Pf_isa.Cfg_build.Term_jump
                        | Pf_isa.Cfg_build.Term_fall ->
                            true
                        | Pf_isa.Cfg_build.Term_call
                        | Pf_isa.Cfg_build.Term_return
                        | Pf_isa.Cfg_build.Term_ind_jump
                        | Pf_isa.Cfg_build.Term_halt ->
                            false)
                      (Hammock.interior cfg ~b:bid ~j)
                  in
                  if not in_same_loop then Spawn_point.Loop_ft
                  else if Hammock.is_simple cfg pdom loops bid && interior_plain ()
                  then Spawn_point.Hammock
                  else Spawn_point.Other
                in
                add b.Pf_isa.Cfg_build.last_pc target category
            | Pf_isa.Cfg_build.Term_call ->
                add b.Pf_isa.Cfg_build.last_pc target Spawn_point.Proc_ft
            | Pf_isa.Cfg_build.Term_ind_jump ->
                add b.Pf_isa.Cfg_build.last_pc target Spawn_point.Other
            | Pf_isa.Cfg_build.Term_return | Pf_isa.Cfg_build.Term_jump
            | Pf_isa.Cfg_build.Term_fall | Pf_isa.Cfg_build.Term_halt ->
                ())
        | Some _ | None -> ())
    blocks;
  (* loop-iteration spawns: loop entry -> last latch block (Section 2.3) *)
  List.iter
    (fun (l : Loops.loop) ->
      match l.Loops.latches with
      | [] -> ()
      | latches ->
          let latch =
            List.fold_left
              (fun best x ->
                if blocks.(x).Pf_isa.Cfg_build.first_pc
                   > blocks.(best).Pf_isa.Cfg_build.first_pc
                then x
                else best)
              (List.hd latches) latches
          in
          add
            blocks.(l.Loops.header).Pf_isa.Cfg_build.first_pc
            blocks.(latch).Pf_isa.Cfg_build.first_pc
            Spawn_point.Loop_iter)
    (Loops.loops loops);
  List.sort_uniq Spawn_point.compare !spawns

let spawn_points program =
  Pf_isa.Cfg_build.build_all program
  |> List.concat_map of_proc
  |> List.sort_uniq Spawn_point.compare
