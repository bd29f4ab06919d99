(* Tests for pf_core: spawn-point classification, policies, hint cache,
   static statistics. *)

open Pf_isa
open Pf_core

let case name f = Alcotest.test_case name `Quick f

(* A procedure with every interesting structure:

   main:
     li   t0, 10
   outer:                      <- loop header
     and  t1, t0, 1
     bne  t1, zero, else_     <- hammock branch
     add  t2, t2, 1
     j    join
   else_:
     add  t3, t3, 1
   join:
     jal  helper              <- call (procFT)
     addi t0, t0, -1
     bgtz t0, outer           <- loop branch (latch)
     halt

   helper:
     add  v0, a0, a0
     jr   ra *)
let program () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.t0 10L;
  Asm.label a "outer";
  Asm.alui a Instr.And Reg.t1 Reg.t0 1L;
  Asm.br a Instr.Ne Reg.t1 Reg.zero "else_";
  Asm.alui a Instr.Add Reg.t2 Reg.t2 1L;
  Asm.j a "join";
  Asm.label a "else_";
  Asm.alui a Instr.Add Reg.t3 Reg.t3 1L;
  Asm.label a "join";
  Asm.jal a "helper";
  Asm.alui a Instr.Add Reg.t0 Reg.t0 (-1L);
  Asm.br a Instr.Gtz Reg.t0 Reg.zero "outer";
  Asm.halt a;
  Asm.proc a "helper";
  Asm.alu a Instr.Add Reg.v0 Reg.a0 Reg.a0;
  Asm.jr a Reg.ra;
  (a, Asm.assemble a ~entry:"main")

let spawn_with spawns category =
  List.filter (fun s -> s.Spawn_point.category = category) spawns

let test_classification () =
  let a, p = program () in
  let spawns = Classify.spawn_points p in
  let pc_of = Asm.pc_of_label a in
  (* hammock: the bne at outer+4, targeting join *)
  (match spawn_with spawns Spawn_point.Hammock with
  | [ s ] ->
      Alcotest.(check int) "hammock at bne" (pc_of "outer" + 4) s.Spawn_point.at_pc;
      Alcotest.(check int) "hammock targets join" (pc_of "join") s.Spawn_point.target_pc
  | l -> Alcotest.failf "expected 1 hammock, got %d" (List.length l));
  (* loop fall-through: the bgtz, targeting the halt *)
  (match spawn_with spawns Spawn_point.Loop_ft with
  | [ s ] ->
      Alcotest.(check int) "loopFT at loop branch" (pc_of "join" + 8) s.Spawn_point.at_pc;
      Alcotest.(check int) "loopFT targets after loop" (pc_of "join" + 12)
        s.Spawn_point.target_pc
  | l -> Alcotest.failf "expected 1 loopFT, got %d" (List.length l));
  (* procedure fall-through: the jal, targeting its return point *)
  (match spawn_with spawns Spawn_point.Proc_ft with
  | [ s ] ->
      Alcotest.(check int) "procFT at call" (pc_of "join") s.Spawn_point.at_pc;
      Alcotest.(check int) "procFT targets return point" (pc_of "join" + 4)
        s.Spawn_point.target_pc
  | l -> Alcotest.failf "expected 1 procFT, got %d" (List.length l));
  (* loop-iteration spawn: header -> latch block *)
  match spawn_with spawns Spawn_point.Loop_iter with
  | [ s ] ->
      Alcotest.(check int) "loop spawn at header" (pc_of "outer") s.Spawn_point.at_pc;
      (* the latch block starts at the jal (join label) because the call
         terminates the preceding block *)
      Alcotest.(check bool) "loop spawn targets a block in the loop tail" true
        (s.Spawn_point.target_pc >= pc_of "join")
  | l -> Alcotest.failf "expected 1 loop spawn, got %d" (List.length l)

let test_no_spawn_for_plain_blocks () =
  let _, p = program () in
  let spawns = Classify.spawn_points p in
  (* the j instruction and the return must not generate spawn points *)
  List.iter
    (fun s ->
      let i = Program.fetch p s.Spawn_point.at_pc in
      Alcotest.(check bool)
        (Printf.sprintf "%s is a branch, call, indirect jump or block head"
           (Instr.to_string i))
        false
        (Instr.is_return i || (match i with Instr.J _ -> true | _ -> false)))
    spawns

let switch_program () =
  let open Pf_mini in
  let open Pf_mini.Ast in
  let prog =
    { funcs =
        [ { name = "main"; params = [];
            body =
              [ Let ("x", i 1);
                Switch
                  ( v "x",
                    [ (0, [ Set ("g", i 10) ]); (1, [ Set ("g", i 20) ]) ],
                    [ Set ("g", i 0) ] ) ] } ];
      globals = [ ("g", 8) ] }
  in
  (Compile.compile prog).Compile.program

let test_indirect_jump_is_other () =
  let p = switch_program () in
  let spawns = Classify.spawn_points p in
  let others = spawn_with spawns Spawn_point.Other in
  let indirect_other =
    List.exists
      (fun s -> Instr.is_indirect_jump (Program.fetch p s.Spawn_point.at_pc))
      others
  in
  Alcotest.(check bool) "switch jr classified as other" true indirect_other

let test_policy_select () =
  let _, p = program () in
  let spawns = Classify.spawn_points p in
  let count pol = List.length (Policy.select pol spawns) in
  Alcotest.(check int) "no_spawn empty" 0 (count Policy.No_spawn);
  Alcotest.(check int) "hammock only" 1
    (count (Policy.Categories [ Spawn_point.Hammock ]));
  Alcotest.(check int) "loop+loopFT" 2
    (count (Policy.Categories [ Spawn_point.Loop_iter; Spawn_point.Loop_ft ]));
  Alcotest.(check int) "postdoms = all minus loop_iter" 3 (count Policy.Postdoms);
  Alcotest.(check int) "postdoms minus hammock" 2
    (count (Policy.Postdoms_minus Spawn_point.Hammock));
  Alcotest.(check int) "rec_pred static part empty" 0 (count Policy.Rec_pred);
  (* the descriptor table, one row per policy class, and the default
     machine each row names *)
  let module Config = Pf_uarch.Config in
  let tracker = { Config.polyflow with Config.mem_tracker = true } in
  let rows :
      (Policy.t * unit Policy.speculation * Policy.machine * Config.t) list =
    [ (No_spawn, Speculate No_dynamic, One_task, Config.superscalar);
      ( Categories [ Spawn_point.Hammock ], Speculate No_dynamic,
        Polyflow { tracker = false }, Config.polyflow );
      (Postdoms, Speculate No_dynamic, Polyflow { tracker = false },
       Config.polyflow);
      ( Postdoms_minus Spawn_point.Hammock, Speculate No_dynamic,
        Polyflow { tracker = false }, Config.polyflow );
      (Rec_pred, Speculate Reconvergence, Polyflow { tracker = false },
       Config.polyflow);
      (Dmt, Speculate Dmt_heuristics, Polyflow { tracker = false },
       Config.polyflow);
      (Adaptive, Safety_levels (), Polyflow { tracker = true }, tracker);
      (Doacross, Near_carry_sync, Polyflow { tracker = true }, tracker) ]
  in
  List.iter
    (fun (p, speculation, machine, config) ->
      Alcotest.(check bool) (Policy.name p ^ " descriptor row") true
        (Policy.descriptor p = { Policy.speculation; machine });
      Alcotest.(check bool) (Policy.name p ^ " default machine") true
        (Config.for_policy p = config))
    rows

let test_policy_names () =
  Alcotest.(check string) "postdoms" "postdoms" (Policy.name Policy.Postdoms);
  Alcotest.(check string) "combo" "loop+loopFT"
    (Policy.name (Policy.Categories [ Spawn_point.Loop_iter; Spawn_point.Loop_ft ]));
  Alcotest.(check string) "ablation" "postdoms-hammock"
    (Policy.name (Policy.Postdoms_minus Spawn_point.Hammock));
  Alcotest.(check string) "baseline" "superscalar" (Policy.name Policy.No_spawn)

(* the help and error texts are built from [Policy.names], so every
   name they list must parse, and print back as itself unless it is the
   superscalar's alias *)
let test_policy_names_parse () =
  List.iter
    (fun s ->
      match Policy.of_string s with
      | Ok p ->
          Alcotest.(check string) (s ^ " round-trips")
            (if s = "baseline" then "superscalar" else s)
            (Policy.name p)
      | Error e -> Alcotest.failf "%s does not parse: %s" s e)
    Policy.names;
  Alcotest.(check bool) "doacross listed" true (List.mem "doacross" Policy.names);
  match Policy.of_string "nope" with
  | Ok _ -> Alcotest.fail "nope parsed"
  | Error e ->
      Alcotest.(check bool) "error text lists the syntax" true
        (String.ends_with ~suffix:(Policy.syntax ^ ")") e)

let test_figure_lineups () =
  Alcotest.(check int) "figure 9 has 6 policies" 6 (List.length Policy.figure9_policies);
  Alcotest.(check int) "figure 10 has 4" 4 (List.length Policy.figure10_policies);
  Alcotest.(check int) "figure 11 has 4" 4 (List.length Policy.figure11_policies);
  Alcotest.(check int) "figure 12 has 2" 2 (List.length Policy.figure12_policies)

let test_hint_cache () =
  let _, p = program () in
  let spawns = Policy.select Policy.Postdoms (Classify.spawn_points p) in
  let hc = Hint_cache.of_spawns spawns in
  Alcotest.(check int) "all installed" (List.length spawns) (Hint_cache.size hc);
  List.iter
    (fun s ->
      Alcotest.(check bool) "findable" true
        (List.mem s (Hint_cache.find hc ~pc:s.Spawn_point.at_pc)))
    spawns;
  Alcotest.(check int) "miss returns nothing" 0
    (List.length (Hint_cache.find hc ~pc:0x9999))

let test_hint_cache_duplicate_install () =
  let s = { Spawn_point.at_pc = 4; target_pc = 8; category = Spawn_point.Hammock } in
  let hc = Hint_cache.of_spawns [ s; s ] in
  Alcotest.(check int) "no duplicates" 1 (Hint_cache.size hc)

(* The table is sized once from its spawns: on every kernel, under
   every policy class the fuzz oracles run, each pc holds exactly the
   spawns selected at it, in selection order, once each. *)
let test_hint_cache_holds_every_selection () =
  List.iter
    (fun name ->
      let wl = Option.get (Pf_workloads.Suite.find name) in
      let all = Classify.spawn_points wl.Pf_workloads.Workload.program in
      List.iter
        (fun policy ->
          let selected = Policy.select policy all in
          let hc = Hint_cache.of_spawns selected in
          let pcs =
            List.sort_uniq compare
              (List.map (fun s -> s.Spawn_point.at_pc) selected)
          in
          List.iter
            (fun pc ->
              let expected =
                List.fold_left
                  (fun acc s ->
                    if s.Spawn_point.at_pc = pc && not (List.mem s acc) then
                      acc @ [ s ]
                    else acc)
                  [] selected
              in
              if Hint_cache.find hc ~pc <> expected then
                Alcotest.failf "%s under %s: hints at pc %#x differ" name
                  (Policy.name policy) pc)
            pcs;
          Alcotest.(check int)
            (Printf.sprintf "%s under %s: nothing else installed" name
               (Policy.name policy))
            (List.length (List.sort_uniq compare selected))
            (Hint_cache.size hc))
        Pf_fuzz.Oracle.all_policies)
    Pf_workloads.Suite.spec_names

let test_static_stats () =
  let _, p = program () in
  let spawns = Classify.spawn_points p in
  let st = Static_stats.of_spawns spawns in
  Alcotest.(check int) "total excludes loop_iter" 3 (Static_stats.total st);
  Alcotest.(check int) "loopFT" 1 st.Static_stats.loop_ft;
  Alcotest.(check int) "procFT" 1 st.Static_stats.proc_ft;
  Alcotest.(check int) "hammock" 1 st.Static_stats.hammock;
  Alcotest.(check int) "other" 0 st.Static_stats.other;
  let lf, pf, hm, ot = Static_stats.percentages st in
  Alcotest.(check (float 0.01)) "sums to 100" 100. (lf +. pf +. hm +. ot)

let test_static_stats_empty () =
  let st = Static_stats.of_spawns [] in
  Alcotest.(check int) "total 0" 0 (Static_stats.total st);
  let lf, pf, hm, ot = Static_stats.percentages st in
  Alcotest.(check (float 0.001)) "no NaN" 0. (lf +. pf +. hm +. ot)

(* Property: for every postdominator-category spawn point of a random
   structured program, the target block really postdominates the block of
   the spawn instruction — the control-equivalence guarantee of
   Section 2.1. *)
let gen_structured_program =
  let open QCheck.Gen in
  let fresh =
    let n = ref 0 in
    fun () -> incr n; Printf.sprintf "x%d" !n
  in
  let open Pf_mini.Ast in
  let expr = map (fun n -> v "a" +: i n) (int_range (-50) 50) in
  let rec stmt depth =
    let block d = list_size (int_range 1 2) (stmt d) in
    if depth = 0 then map (fun e -> Set ("a", e)) expr
    else
      oneof
        [ map (fun e -> Set ("a", e)) expr;
          map3 (fun c t e -> If (c, t, e))
            (map (fun e -> e <: i 0) expr)
            (block (depth - 1)) (block (depth - 1));
          map2
            (fun n body ->
              let k = fresh () in
              If
                ( Const 1L,
                  [ Let (k, i 0);
                    While (v k <: i n, body @ [ Set (k, v k +: i 1) ]) ],
                  [] ))
            (int_range 1 4)
            (block (depth - 1));
          map (fun e -> Let ("r", Call ("callee", [ e ]))) expr ]
  in
  map
    (fun stmts ->
      { funcs =
          [ { name = "main"; params = [];
              body = Let ("a", i 1) :: stmts @ [ Set ("result", v "a") ] };
            { name = "callee"; params = [ "x" ];
              body = [ Return (Some (v "x" *: i 3)) ] } ];
        globals = [ ("result", 8) ] })
    (list_size (int_range 2 5) (stmt 2))

let prop_spawn_targets_postdominate =
  QCheck.Test.make ~name:"postdominator spawn targets postdominate their branch"
    ~count:80
    (QCheck.make gen_structured_program)
    (fun mini ->
      let program = (Pf_mini.Compile.compile mini).Pf_mini.Compile.program in
      let pcfgs = Pf_isa.Cfg_build.build_all program in
      let ok = ref true in
      List.iter
        (fun (pcfg : Pf_isa.Cfg_build.t) ->
          let pdom = Pf_cfg.Dominance.postdominators pcfg.Pf_isa.Cfg_build.cfg in
          let spawns = Classify.of_proc pcfg in
          List.iter
            (fun (s : Spawn_point.t) ->
              if s.Spawn_point.category <> Spawn_point.Loop_iter then
                match
                  ( Pf_isa.Cfg_build.block_at pcfg s.Spawn_point.at_pc,
                    Pf_isa.Cfg_build.block_starting_at pcfg s.Spawn_point.target_pc )
                with
                | Some b, Some j ->
                    if not (Pf_cfg.Dominance.is_ancestor pdom j b) then ok := false
                | _ ->
                    (* a spawn in one procedure cannot point elsewhere *)
                    ok := false)
            spawns)
        pcfgs;
      !ok)

let prop_spawn_at_pcs_are_transfer_points =
  QCheck.Test.make
    ~name:"spawn at_pc is a branch, call, indirect jump or block head" ~count:80
    (QCheck.make gen_structured_program)
    (fun mini ->
      let program = (Pf_mini.Compile.compile mini).Pf_mini.Compile.program in
      List.for_all
        (fun (s : Spawn_point.t) ->
          let instr = Pf_isa.Program.fetch program s.Spawn_point.at_pc in
          if s.Spawn_point.category = Spawn_point.Loop_iter then true
          else
            Pf_isa.Instr.is_cond_branch instr
            || Pf_isa.Instr.is_call instr
            || Pf_isa.Instr.is_indirect_jump instr)
        (Classify.spawn_points program))

let suite =
  [ ( "core.classify",
      [ case "categories of a structured procedure" test_classification;
        case "plain blocks spawn nothing" test_no_spawn_for_plain_blocks;
        case "indirect jump is other" test_indirect_jump_is_other;
        Prop.to_alcotest prop_spawn_targets_postdominate;
        Prop.to_alcotest prop_spawn_at_pcs_are_transfer_points ] );
    ( "core.policy",
      [ case "select" test_policy_select;
        case "names" test_policy_names;
        case "every listed name parses" test_policy_names_parse;
        case "figure line-ups" test_figure_lineups ] );
    ( "core.hint_cache",
      [ case "install and find" test_hint_cache;
        case "duplicates collapse" test_hint_cache_duplicate_install;
        case "every kernel's selections, in order, once each"
          test_hint_cache_holds_every_selection ] );
    ( "core.static_stats",
      [ case "figure 5 counters" test_static_stats;
        case "empty is defined" test_static_stats_empty ] ) ]
