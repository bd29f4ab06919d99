(* Tests for pf_isa: instruction metadata, the assembler, the
   architectural interpreter, and CFG construction from binaries. *)

open Pf_isa

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Instr metadata                                                      *)

let test_def_uses () =
  let open Instr in
  Alcotest.(check (option int)) "alu def" (Some Reg.t0)
    (def (Alu (Add, Reg.t0, Reg.t1, Reg.t2)));
  Alcotest.(check (list int)) "alu uses" [ Reg.t1; Reg.t2 ]
    (uses (Alu (Add, Reg.t0, Reg.t1, Reg.t2)));
  Alcotest.(check (option int)) "write to zero discarded" None
    (def (Alu (Add, Reg.zero, Reg.t1, Reg.t2)));
  Alcotest.(check (list int)) "zero not a use" []
    (uses (Alui (Add, Reg.t0, Reg.zero, 4L)));
  Alcotest.(check (option int)) "call defines ra" (Some Reg.ra) (def (Jal 0x1000));
  Alcotest.(check (list int)) "store uses data and base" [ Reg.t1; Reg.t2 ]
    (uses (Store (W, Reg.t1, Reg.t2, 0)));
  Alcotest.(check (list int)) "beq uses two regs" [ Reg.t0; Reg.t1 ]
    (uses (Br (Eq, Reg.t0, Reg.t1, 0)));
  Alcotest.(check (list int)) "bgez uses one reg" [ Reg.t0 ]
    (uses (Br (Gez, Reg.t0, Reg.zero, 0)));
  Alcotest.(check (list int)) "duplicate use deduplicated" [ Reg.t0 ]
    (uses (Alu (Add, Reg.t1, Reg.t0, Reg.t0)))

let test_classification () =
  let open Instr in
  Alcotest.(check bool) "br is cond" true (is_cond_branch (Br (Eq, 0, 0, 0)));
  Alcotest.(check bool) "j is not cond" false (is_cond_branch (J 0));
  Alcotest.(check bool) "jal is call" true (is_call (Jal 0));
  Alcotest.(check bool) "jalr is call" true (is_call (Jalr Reg.t0));
  Alcotest.(check bool) "jr ra is return" true (is_return (Jr Reg.ra));
  Alcotest.(check bool) "jr t0 is indirect" true (is_indirect_jump (Jr Reg.t0));
  Alcotest.(check bool) "jr ra is not indirect" false (is_indirect_jump (Jr Reg.ra));
  Alcotest.(check bool) "load terminates nothing" false
    (is_block_terminator (Load (D, true, 0, 0, 0)));
  Alcotest.(check bool) "halt terminates" true (is_block_terminator Halt)

let test_latency () =
  let open Instr in
  Alcotest.(check int) "add" 1 (latency (Alu (Add, 0, 0, 0)));
  Alcotest.(check int) "mul" 3 (latency (Alu (Mul, 0, 0, 0)));
  Alcotest.(check int) "div" 12 (latency (Alui (Div, 0, 0, 2L)));
  Alcotest.(check int) "branch" 1 (latency (Br (Eq, 0, 0, 0)))

(* ------------------------------------------------------------------ *)
(* Assembler                                                           *)

let countdown_program () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.t0 5L;
  Asm.li a Reg.t1 0L;
  Asm.label a "loop";
  Asm.alu a Instr.Add Reg.t1 Reg.t1 Reg.t0;
  Asm.alui a Instr.Add Reg.t0 Reg.t0 (-1L);
  Asm.br a Instr.Gtz Reg.t0 Reg.zero "loop";
  Asm.halt a;
  Asm.assemble a ~entry:"main"

let test_assemble_labels () =
  let p = countdown_program () in
  Alcotest.(check int) "length" 6 (Program.length p);
  Alcotest.(check int) "entry pc" 0x1000 p.Program.entry_pc;
  (match Program.fetch p 0x1010 with
  | Instr.Br (Instr.Gtz, rs, _, target) ->
      Alcotest.(check int) "branch reg" Reg.t0 rs;
      Alcotest.(check int) "branch target" 0x1008 target
  | i -> Alcotest.failf "unexpected instr %s" (Instr.to_string i));
  match p.Program.procs with
  | [ pr ] ->
      Alcotest.(check string) "proc name" "main" pr.Program.name;
      Alcotest.(check int) "proc entry" 0x1000 pr.Program.entry;
      Alcotest.(check int) "proc last" 0x1014 pr.Program.last
  | _ -> Alcotest.fail "expected one procedure"

let test_duplicate_label_rejected () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.label a "x";
  Alcotest.check_raises "dup" (Invalid_argument "Asm.label: x already defined")
    (fun () -> Asm.label a "x")

let test_undefined_label_rejected () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.j a "nowhere";
  (try
     ignore (Asm.assemble a ~entry:"main");
     Alcotest.fail "expected failure"
   with Invalid_argument _ -> ())

let test_fresh_labels_distinct () =
  let a = Asm.create () in
  let l1 = Asm.fresh a "x" and l2 = Asm.fresh a "x" in
  Alcotest.(check bool) "distinct" true (l1 <> l2)

let test_program_pc_mapping () =
  let p = countdown_program () in
  Alcotest.(check int) "index of entry" 0 (Program.index_of_pc p 0x1000);
  Alcotest.(check int) "pc of index 3" 0x100c (Program.pc_of_index p 3);
  Alcotest.(check bool) "in range" true (Program.in_range p 0x1014);
  Alcotest.(check bool) "misaligned out" false (Program.in_range p 0x1002);
  Alcotest.(check bool) "beyond out" false (Program.in_range p 0x1018)

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)

let test_countdown_executes () =
  let p = countdown_program () in
  let m = Machine.create p in
  let n = Machine.run m ~max_instrs:1000 ~on_event:ignore in
  Alcotest.(check bool) "halted" true (Machine.halted m);
  (* 2 setup + 5 iterations x 3 + halt = 18 *)
  Alcotest.(check int) "instruction count" 18 n;
  Alcotest.(check int64) "sum 5+4+3+2+1" 15L (Machine.reg m Reg.t1)

let test_step_events () =
  let p = countdown_program () in
  let m = Machine.create p in
  (match Machine.step m with
  | Some ev ->
      Alcotest.(check int) "first pc" 0x1000 ev.Machine.pc;
      Alcotest.(check int) "next pc" 0x1004 ev.Machine.next_pc;
      Alcotest.(check bool) "not taken" false ev.Machine.taken;
      Alcotest.(check int) "no mem" (-1) ev.Machine.addr
  | None -> Alcotest.fail "machine halted early");
  ignore (Machine.skip m 3);
  (* now at the branch, t0 = 4 after first decrement *)
  match Machine.step m with
  | Some ev ->
      Alcotest.(check bool) "branch taken" true ev.Machine.taken;
      Alcotest.(check int) "to loop head" 0x1008 ev.Machine.next_pc
  | None -> Alcotest.fail "machine halted early"

let test_memory_roundtrip () =
  let p = countdown_program () in
  let m = Machine.create p in
  Machine.write_i64 m 0x4000 (-123456789L);
  Alcotest.(check int64) "i64" (-123456789L) (Machine.read_i64 m 0x4000);
  Machine.write_u8 m 0x5000 0xab;
  Alcotest.(check int) "u8" 0xab (Machine.read_u8 m 0x5000);
  Machine.write_i32 m 0x6000 (-7l);
  Alcotest.(check int32) "i32" (-7l) (Machine.read_i32 m 0x6000)

let test_load_store_widths () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.t0 0x4000L;
  Asm.li a Reg.t1 (-2L);
  Asm.store a Instr.B Reg.t1 Reg.t0 0;
  Asm.load a Instr.B ~signed:true Reg.t2 Reg.t0 0;
  Asm.load a Instr.B ~signed:false Reg.t3 Reg.t0 0;
  Asm.li a Reg.t4 0x1234_5678_9abc_def0L;
  Asm.store a Instr.D Reg.t4 Reg.t0 8;
  Asm.load a Instr.D Reg.t5 Reg.t0 8;
  Asm.store a Instr.W Reg.t4 Reg.t0 16;
  Asm.load a Instr.W ~signed:true Reg.t6 Reg.t0 16;
  Asm.load a Instr.W ~signed:false Reg.t7 Reg.t0 16;
  Asm.store a Instr.H Reg.t4 Reg.t0 24;
  Asm.load a Instr.H ~signed:true Reg.t8 Reg.t0 24;
  Asm.halt a;
  let m = Machine.create (Asm.assemble a ~entry:"main") in
  ignore (Machine.run m ~max_instrs:100 ~on_event:ignore);
  Alcotest.(check int64) "lb sign-extends" (-2L) (Machine.reg m Reg.t2);
  Alcotest.(check int64) "lbu zero-extends" 0xfeL (Machine.reg m Reg.t3);
  Alcotest.(check int64) "ld round-trips" 0x1234_5678_9abc_def0L
    (Machine.reg m Reg.t5);
  Alcotest.(check int64) "lw sign-extends" 0xffffffff_9abcdef0L
    (Machine.reg m Reg.t6);
  Alcotest.(check int64) "lwu zero-extends" 0x9abcdef0L (Machine.reg m Reg.t7);
  Alcotest.(check int64) "lh sign-extends" 0xffffffff_ffffdef0L
    (Machine.reg m Reg.t8)

let test_call_return () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.a0 20L;
  Asm.jal a "double";
  Asm.mv a Reg.t0 Reg.v0;
  Asm.halt a;
  Asm.proc a "double";
  Asm.alu a Instr.Add Reg.v0 Reg.a0 Reg.a0;
  Asm.jr a Reg.ra;
  let m = Machine.create (Asm.assemble a ~entry:"main") in
  ignore (Machine.run m ~max_instrs:100 ~on_event:ignore);
  Alcotest.(check int64) "doubled" 40L (Machine.reg m Reg.t0);
  Alcotest.(check bool) "halted" true (Machine.halted m)

let test_div_by_zero_defined () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.t0 7L;
  Asm.li a Reg.t1 0L;
  Asm.alu a Instr.Div Reg.t2 Reg.t0 Reg.t1;
  Asm.alu a Instr.Rem Reg.t3 Reg.t0 Reg.t1;
  Asm.halt a;
  let m = Machine.create (Asm.assemble a ~entry:"main") in
  ignore (Machine.run m ~max_instrs:100 ~on_event:ignore);
  Alcotest.(check int64) "div/0 = 0" 0L (Machine.reg m Reg.t2);
  Alcotest.(check int64) "rem/0 = 0" 0L (Machine.reg m Reg.t3)

let test_zero_register_immutable () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.zero 99L;
  Asm.alui a Instr.Add Reg.t0 Reg.zero 1L;
  Asm.halt a;
  let m = Machine.create (Asm.assemble a ~entry:"main") in
  ignore (Machine.run m ~max_instrs:10 ~on_event:ignore);
  Alcotest.(check int64) "zero stays zero" 0L (Machine.reg m Reg.zero);
  Alcotest.(check int64) "t0 = 0 + 1" 1L (Machine.reg m Reg.t0)

let test_max_instrs_budget () =
  (* infinite loop: run must stop at the budget *)
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.label a "spin";
  Asm.j a "spin";
  let m = Machine.create (Asm.assemble a ~entry:"main") in
  let n = Machine.run m ~max_instrs:50 ~on_event:ignore in
  Alcotest.(check int) "stopped at budget" 50 n;
  Alcotest.(check bool) "not halted" false (Machine.halted m)

(* Determinism: two runs produce identical event streams. *)
let test_determinism =
  QCheck.Test.make ~name:"interpreter is deterministic" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let build () =
        let a = Asm.create () in
        Asm.proc a "main";
        Asm.li a Reg.t0 (Int64.of_int (seed + 3));
        Asm.li a Reg.t1 1L;
        Asm.label a "loop";
        Asm.alu a Instr.Mul Reg.t1 Reg.t1 Reg.t0;
        Asm.alui a Instr.Add Reg.t0 Reg.t0 (-1L);
        Asm.br a Instr.Gtz Reg.t0 Reg.zero "loop";
        Asm.halt a;
        Asm.assemble a ~entry:"main"
      in
      let trace p =
        let m = Machine.create p in
        let evs = ref [] in
        ignore (Machine.run m ~max_instrs:10_000 ~on_event:(fun e -> evs := e :: !evs));
        (!evs, Machine.reg m Reg.t1)
      in
      trace (build ()) = trace (build ()))

(* ------------------------------------------------------------------ *)
(* State digest                                                        *)

(* Machine.state_digest fingerprints workload setups, so it keys every
   trace-store entry: equal histories must digest equal, and any
   architectural difference must change the digest. *)
let test_state_digest () =
  let p = countdown_program () in
  let after_setup () =
    let m = Machine.create p in
    ignore (Machine.skip m 5);
    Machine.write_i64 m 0x4000 77L;
    m
  in
  let d0 = Machine.state_digest (after_setup ()) in
  Alcotest.(check string) "same history, same digest" d0
    (Machine.state_digest (after_setup ()));
  let changes what f =
    let m = after_setup () in
    f m;
    Alcotest.(check bool) what false (Machine.state_digest m = d0)
  in
  changes "register write" (fun m -> Machine.set_reg m Reg.t2 1L);
  changes "memory write of a new value" (fun m ->
      Machine.write_i64 m 0x4000 78L);
  changes "one more instruction" (fun m -> ignore (Machine.skip m 1))

(* ------------------------------------------------------------------ *)
(* Cfg_build                                                           *)

(* A procedure shaped like the paper's Figure 1: loop containing an
   if-then-else. *)
let fig1_like_program () =
  let a = Asm.create () in
  Asm.proc a "main";
  (* A: loop init *)
  Asm.li a Reg.t0 10L;
  Asm.label a "head";
  (* B: if (t0 & 1) *)
  Asm.alui a Instr.And Reg.t1 Reg.t0 1L;
  Asm.br a Instr.Ne Reg.t1 Reg.zero "else_";
  (* C: then *)
  Asm.alui a Instr.Add Reg.t2 Reg.t2 1L;
  Asm.j a "join";
  Asm.label a "else_";
  (* D: else *)
  Asm.alui a Instr.Add Reg.t3 Reg.t3 1L;
  Asm.label a "join";
  (* E *)
  Asm.alui a Instr.Add Reg.t0 Reg.t0 (-1L);
  (* F: loop branch *)
  Asm.br a Instr.Gtz Reg.t0 Reg.zero "head";
  Asm.halt a;
  Asm.assemble a ~entry:"main"

let test_cfg_build_blocks () =
  let p = fig1_like_program () in
  let pcfg = List.hd (Cfg_build.build_all p) in
  (* A, B, C(+j), D, E+F, halt, virtual exit -- E and F merge because E
     doesn't end a block until the branch. *)
  let nb = Array.length pcfg.Cfg_build.blocks in
  Alcotest.(check int) "blocks incl. exit" 7 nb;
  let term_of i = pcfg.Cfg_build.blocks.(i).Cfg_build.term in
  (match term_of 1 with
  | Cfg_build.Term_branch Instr.Ne -> ()
  | _ -> Alcotest.fail "block B should end in bne");
  (* exit reachable: validate *)
  match Pf_cfg.Cfg.validate pcfg.Cfg_build.cfg with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_cfg_build_postdominators () =
  let p = fig1_like_program () in
  let pcfg = List.hd (Cfg_build.build_all p) in
  let cfg = pcfg.Cfg_build.cfg in
  let pdom = Pf_cfg.Dominance.postdominators cfg in
  (* the if-branch block's ipostdom is the join block *)
  let b_if =
    match Cfg_build.block_starting_at pcfg 0x1004 with
    | Some b -> b
    | None -> Alcotest.fail "no block at 0x1004"
  in
  let join_pc = 0x1018 in
  (match Pf_cfg.Dominance.parent pdom b_if with
  | Some j ->
      Alcotest.(check int) "ipostdom of if is join" join_pc
        pcfg.Cfg_build.blocks.(j).Cfg_build.first_pc
  | None -> Alcotest.fail "if block has no ipostdom");
  (* the loop is detected *)
  let dom = Pf_cfg.Dominance.dominators cfg in
  let loops = Pf_cfg.Loops.detect cfg dom in
  Alcotest.(check int) "one loop" 1 (List.length (Pf_cfg.Loops.loops loops))

let test_cfg_build_call_block () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.a0 1L;
  Asm.jal a "f";
  Asm.mv a Reg.t0 Reg.v0;
  Asm.halt a;
  Asm.proc a "f";
  Asm.mv a Reg.v0 Reg.a0;
  Asm.jr a Reg.ra;
  let p = Asm.assemble a ~entry:"main" in
  let pcfgs = Cfg_build.build_all p in
  Alcotest.(check int) "two procedures" 2 (List.length pcfgs);
  let main_cfg = List.hd pcfgs in
  (* main: [li; jal] [mv; halt] + exit — halt is not a leader, so it merges *)
  Alcotest.(check int) "main blocks" 3 (Array.length main_cfg.Cfg_build.blocks);
  (match main_cfg.Cfg_build.blocks.(0).Cfg_build.term with
  | Cfg_build.Term_call -> ()
  | _ -> Alcotest.fail "block 0 should end in a call");
  (* call falls through to the next block *)
  Alcotest.(check (list int)) "call successor" [ 1 ]
    (Pf_cfg.Cfg.succs main_cfg.Cfg_build.cfg 0);
  let f_cfg = List.nth pcfgs 1 in
  match f_cfg.Cfg_build.blocks.(0).Cfg_build.term with
  | Cfg_build.Term_return -> ()
  | _ -> Alcotest.fail "f should end in a return"

let test_cfg_build_indirect () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.la a Reg.t0 "case1";
  Asm.jr a Reg.t0;
  Asm.indirect_targets a [ "case0"; "case1" ];
  Asm.label a "case0";
  Asm.li a Reg.t1 0L;
  Asm.halt a;
  Asm.label a "case1";
  Asm.li a Reg.t1 1L;
  Asm.halt a;
  let p = Asm.assemble a ~entry:"main" in
  let pcfg = List.hd (Cfg_build.build_all p) in
  (* indirect jump block has both cases as successors *)
  (match pcfg.Cfg_build.blocks.(0).Cfg_build.term with
  | Cfg_build.Term_ind_jump -> ()
  | _ -> Alcotest.fail "expected indirect jump terminator");
  Alcotest.(check int) "two successors" 2
    (List.length (Pf_cfg.Cfg.succs pcfg.Cfg_build.cfg 0));
  (* and execution actually lands on case1 *)
  let m = Machine.create p in
  ignore (Machine.run m ~max_instrs:10 ~on_event:ignore);
  Alcotest.(check int64) "took case1" 1L (Machine.reg m Reg.t1)

let test_block_at () =
  let p = fig1_like_program () in
  let pcfg = List.hd (Cfg_build.build_all p) in
  (match Cfg_build.block_at pcfg 0x1000 with
  | Some 0 -> ()
  | _ -> Alcotest.fail "entry pc should be in block 0");
  Alcotest.(check (option int)) "out of proc" None (Cfg_build.block_at pcfg 0x9999)

(* ------------------------------------------------------------------ *)
(* Call graph                                                          *)

let test_call_graph_direct () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.jal a "f";
  Asm.jal a "g";
  Asm.halt a;
  Asm.proc a "f";
  Asm.jal a "g";
  Asm.jr a Reg.ra;
  Asm.proc a "g";
  Asm.jr a Reg.ra;
  let p = Asm.assemble a ~entry:"main" in
  let cg = Call_graph.build p in
  Alcotest.(check (list string)) "main calls" [ "f"; "g" ] (Call_graph.callees cg "main");
  Alcotest.(check (list string)) "g called by" [ "f"; "main" ] (Call_graph.callers cg "g");
  Alcotest.(check (list string)) "leaf calls nothing" [] (Call_graph.callees cg "g");
  Alcotest.(check int) "three direct sites" 3 (List.length (Call_graph.call_sites cg));
  Alcotest.(check (list string)) "no recursion" [] (Call_graph.recursive_procs cg)

let test_call_graph_self_recursion () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.jal a "fib";
  Asm.halt a;
  Asm.proc a "fib";
  Asm.jal a "fib";
  Asm.jr a Reg.ra;
  let p = Asm.assemble a ~entry:"main" in
  let cg = Call_graph.build p in
  Alcotest.(check bool) "fib is recursive" true (Call_graph.is_recursive cg "fib");
  Alcotest.(check bool) "main is not" false (Call_graph.is_recursive cg "main")

let test_call_graph_mutual_recursion () =
  (* the parser workload's expr -> term -> factor -> expr cycle *)
  let p =
    (Option.get (Pf_workloads.Suite.find "parser")).Pf_workloads.Workload.program
  in
  let cg = Call_graph.build p in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is on the recursion cycle" f)
        true (Call_graph.is_recursive cg f))
    [ "parse_expr"; "parse_term"; "parse_factor" ];
  Alcotest.(check bool) "main is not recursive" false
    (Call_graph.is_recursive cg "main")

let test_call_graph_indirect_sites () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.la a Reg.t0 "main";
  Asm.jalr a Reg.t0;
  Asm.halt a;
  let p = Asm.assemble a ~entry:"main" in
  let cg = Call_graph.build p in
  Alcotest.(check int) "one indirect site" 1
    (List.length (Call_graph.indirect_sites cg))

(* ------------------------------------------------------------------ *)
(* Parse: disassemble / reassemble round trips                         *)

let test_parse_simple_instrs () =
  let cases =
    [ "nop"; "halt"; "li $t0, 42"; "li $t0, -7"; "add $t0, $t1, $t2";
      "addi $sp, $sp, -32"; "sltui $t0, $t1, 6"; "lw $t0, 4($t1)";
      "lbu $t2, -8($sp)"; "sd $ra, 24($sp)"; "beq $t0, $t1, 0x1004";
      "bgtz $t0, 0x1010"; "j 0x1000"; "jal 0x2000"; "jr $ra"; "jalr $t9" ]
  in
  List.iter
    (fun text ->
      match Parse.instr_of_string text with
      | Ok i ->
          Alcotest.(check string)
            (Printf.sprintf "round-trips %S" text)
            text (Instr.to_string i)
      | Error e -> Alcotest.failf "%S: %s" text e)
    cases

let test_parse_rejects_garbage () =
  List.iter
    (fun text ->
      match Parse.instr_of_string text with
      | Ok _ -> Alcotest.failf "%S should not parse" text
      | Error _ -> ())
    [ "frob $t0"; "add $t0, $t1"; "lw $t0, t1"; "li $t0"; "beq $t0, $t1";
      "add $t0, $t1, $nosuch" ]

let test_program_round_trip () =
  let p = fig1_like_program () in
  match Parse.round_trip p with
  | Ok p' ->
      Alcotest.(check bool) "same code" true (p.Program.code = p'.Program.code);
      Alcotest.(check bool) "same procs" true (p.Program.procs = p'.Program.procs);
      Alcotest.(check int) "same entry" p.Program.entry_pc p'.Program.entry_pc
  | Error e -> Alcotest.fail e

let test_parse_checks_location_counter () =
  let text = "main:\n  1000: nop\n  2000: nop\n" in
  match Parse.program_of_string text with
  | Ok _ -> Alcotest.fail "mismatched PC should be rejected"
  | Error e ->
      Alcotest.(check bool) "mentions the line" true
        (String.length e > 0)

let test_parse_comments_and_blanks () =
  let text = "# a comment\nmain:\n\n  li $t0, 1 # trailing\n  halt\n" in
  match Parse.program_of_string text with
  | Ok p ->
      Alcotest.(check int) "two instructions" 2 (Program.length p);
      Alcotest.(check int) "entry at main" 0x1000 p.Program.entry_pc
  | Error e -> Alcotest.fail e

(* Property: every representable instruction round-trips through its
   printed form. One-register branches canonicalise rt to $zero. *)
let arbitrary_instr =
  let open QCheck.Gen in
  let reg = int_bound 31 in
  let target = map (fun k -> 0x1000 + (4 * k)) (int_bound 999) in
  let alu_op =
    oneofl
      Instr.[ Add; Sub; And; Or; Xor; Nor; Sll; Srl; Sra; Slt; Sltu; Mul; Div; Rem ]
  in
  let width = oneofl Instr.[ B; H; W; D ] in
  let imm = map Int64.of_int (int_range (-1000) 1000) in
  let offset = int_range (-256) 256 in
  oneof
    [ map3 (fun op rd (rs, rt) -> Instr.Alu (op, rd, rs, rt)) alu_op reg
        (pair reg reg);
      map3 (fun op rd (rs, imm) -> Instr.Alui (op, rd, rs, imm)) alu_op reg
        (pair reg imm);
      map2 (fun rd imm -> Instr.Li (rd, imm)) reg imm;
      map3
        (fun (w, signed) rd (base, off) ->
          (* ld is always signed in the syntax *)
          let signed = if w = Instr.D then true else signed in
          Instr.Load (w, signed, rd, base, off))
        (pair width bool) reg (pair reg offset);
      map3 (fun w rt (base, off) -> Instr.Store (w, rt, base, off)) width reg
        (pair reg offset);
      map3 (fun cmp (rs, rt) t -> Instr.Br (cmp, rs, rt, t))
        (oneofl Instr.[ Eq; Ne ])
        (pair reg reg) target;
      map3 (fun cmp rs t -> Instr.Br (cmp, rs, Reg.zero, t))
        (oneofl Instr.[ Lez; Gtz; Gez; Ltz ])
        reg target;
      map (fun t -> Instr.J t) target;
      map (fun t -> Instr.Jal t) target;
      map (fun r -> Instr.Jr r) reg;
      map (fun r -> Instr.Jalr r) reg;
      oneofl [ Instr.Halt; Instr.Nop ] ]

let prop_instr_round_trip =
  QCheck.Test.make ~name:"printed instructions reparse to themselves"
    ~count:500
    (QCheck.make ~print:Instr.to_string arbitrary_instr)
    (fun i ->
      match Parse.instr_of_string (Instr.to_string i) with
      | Ok i' -> i = i'
      | Error _ -> false)

let test_workload_binary_round_trip () =
  (* a large generated binary survives the full disassemble/parse cycle *)
  let p = (Option.get (Pf_workloads.Suite.find "twolf")).Pf_workloads.Workload.program in
  match Parse.round_trip p with
  | Ok p' -> Alcotest.(check bool) "code equal" true (p.Program.code = p'.Program.code)
  | Error e -> Alcotest.fail e

let suite =
  [ ( "isa.instr",
      [ case "def and uses" test_def_uses;
        case "classification" test_classification;
        case "latency" test_latency ] );
    ( "isa.asm",
      [ case "labels resolve" test_assemble_labels;
        case "duplicate label rejected" test_duplicate_label_rejected;
        case "undefined label rejected" test_undefined_label_rejected;
        case "fresh labels distinct" test_fresh_labels_distinct;
        case "pc mapping" test_program_pc_mapping ] );
    ( "isa.machine",
      [ case "countdown executes" test_countdown_executes;
        case "step events" test_step_events;
        case "memory roundtrip" test_memory_roundtrip;
        case "load/store widths" test_load_store_widths;
        case "call and return" test_call_return;
        case "div by zero defined" test_div_by_zero_defined;
        case "zero register immutable" test_zero_register_immutable;
        case "instruction budget" test_max_instrs_budget;
        case "state digest" test_state_digest;
        Prop.to_alcotest test_determinism ] );
    ( "isa.call_graph",
      [ case "direct edges" test_call_graph_direct;
        case "self recursion" test_call_graph_self_recursion;
        case "mutual recursion" test_call_graph_mutual_recursion;
        case "indirect sites" test_call_graph_indirect_sites ] );
    ( "isa.parse",
      [ case "simple instructions" test_parse_simple_instrs;
        case "garbage rejected" test_parse_rejects_garbage;
        case "program round trip" test_program_round_trip;
        case "location counter checked" test_parse_checks_location_counter;
        case "comments and blanks" test_parse_comments_and_blanks;
        case "workload binary round trip" test_workload_binary_round_trip;
        Prop.to_alcotest prop_instr_round_trip ] );
    ( "isa.cfg_build",
      [ case "blocks of figure-1 shape" test_cfg_build_blocks;
        case "postdominators through binary" test_cfg_build_postdominators;
        case "call terminates block" test_cfg_build_call_block;
        case "indirect jump targets" test_cfg_build_indirect;
        case "block_at" test_block_at ] ) ]
