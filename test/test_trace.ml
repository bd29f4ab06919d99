(* Tests for pf_trace: window capture, dependence analysis, occurrence
   index. *)

open Pf_isa
open Pf_trace

let case name f = Alcotest.test_case name `Quick f

(* A small program with register and memory dependences:
     li   t0, 0x4000
     li   t1, 7
     sw   t1, 0(t0)       ; store
     lw   t2, 0(t0)       ; load depends on the store
     add  t3, t2, t1      ; depends on load and li
     halt *)
let dep_program () =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.t0 0x4000L;
  Asm.li a Reg.t1 7L;
  Asm.store a Instr.W Reg.t1 Reg.t0 0;
  Asm.load a Instr.W Reg.t2 Reg.t0 0;
  Asm.alu a Instr.Add Reg.t3 Reg.t2 Reg.t1;
  Asm.halt a;
  Asm.assemble a ~entry:"main"

let capture ?(fast_forward = 0) ?(window = 1000) p =
  let m = Machine.create p in
  let tr = Tracer.capture m ~fast_forward ~window in
  Depinfo.compute tr;
  tr

(* Capture allocates its columns once, at the window size: it keeps
   at most [window] instructions, cuts the columns down to the
   instructions run when the program halts first, records nothing for
   an empty window or a halted machine, and keeps program order. *)
let test_capture_bounds_and_order () =
  let a = Asm.create () in
  Asm.proc a "main";
  for k = 1 to 36 do
    Asm.li a Reg.t0 (Int64.of_int k)
  done;
  Asm.halt a;
  let p = Asm.assemble a ~entry:"main" in
  let in_order what (tr : Tracer.t) =
    Array.iteri
      (fun i pc ->
        if pc <> p.Program.base + (4 * i) then
          Alcotest.failf "%s: instruction %d out of order (pc %#x)" what i pc)
      tr.Tracer.pc
  in
  let capped = capture ~window:4 p in
  Alcotest.(check int) "capped at the window" 4 (Tracer.length capped);
  Alcotest.(check int) "columns sized to the window" 4
    (Array.length capped.Tracer.memsrc);
  in_order "capped" capped;
  let halted = capture ~window:1000 p in
  Alcotest.(check int) "cut at the halt" 37 (Tracer.length halted);
  Alcotest.(check int) "columns cut too" 37
    (Bytes.length halted.Tracer.backward);
  in_order "halted" halted;
  Alcotest.(check int) "empty window" 0 (Tracer.length (capture ~window:0 p));
  Alcotest.(check int) "halted during fast-forward" 0
    (Tracer.length (capture ~fast_forward:100 ~window:16 p))

let test_capture_full_run () =
  let tr = capture (dep_program ()) in
  Alcotest.(check int) "six instructions" 6 (Tracer.length tr);
  Alcotest.(check int) "nothing skipped" 0 tr.Tracer.fast_forwarded

let test_register_producers () =
  let tr = capture (dep_program ()) in
  (* store (index 2) reads t1 (index 1) and t0 (index 0);
     uses are sorted by register number so t1 (data) then t0? t1=9 > t0=8,
     so src1 <- producer of t0, src2 <- producer of t1 *)
  Alcotest.(check int) "store src1" 0 tr.Tracer.src1.(2);
  Alcotest.(check int) "store src2" 1 tr.Tracer.src2.(2);
  (* add (index 4) reads t2 (load, index 3) and t1 (index 1) *)
  Alcotest.(check int) "add src1" 1 tr.Tracer.src1.(4);
  Alcotest.(check int) "add src2" 3 tr.Tracer.src2.(4)

let test_memory_producer () =
  let tr = capture (dep_program ()) in
  Alcotest.(check int) "load fed by store" 2 tr.Tracer.memsrc.(3);
  Alcotest.(check int) "store has no memsrc" (-1) tr.Tracer.memsrc.(2)

let test_partial_overlap () =
  (* byte store into the middle of a loaded word must be seen *)
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.t0 0x4000L;
  Asm.store a Instr.D Reg.zero Reg.t0 0; (* idx 1: full word *)
  Asm.li a Reg.t1 0xffL;
  Asm.store a Instr.B Reg.t1 Reg.t0 3;   (* idx 3: one byte inside *)
  Asm.load a Instr.D Reg.t2 Reg.t0 0;    (* idx 4: reads both *)
  Asm.halt a;
  let tr = capture (Asm.assemble a ~entry:"main") in
  Alcotest.(check int) "youngest overlapping store wins" 3
    tr.Tracer.memsrc.(4)

let test_before_window_producer () =
  (* with fast-forward, producers before the window read as -1 *)
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.t0 5L;      (* will be fast-forwarded past *)
  Asm.alui a Instr.Add Reg.t1 Reg.t0 1L;
  Asm.halt a;
  let tr = capture ~fast_forward:1 (Asm.assemble a ~entry:"main") in
  Alcotest.(check int) "ff count" 1 tr.Tracer.fast_forwarded;
  Alcotest.(check int) "producer outside window" (-1) tr.Tracer.src1.(0)

let loop_program n =
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.t0 (Int64.of_int n);
  Asm.label a "head";
  Asm.alui a Instr.Add Reg.t0 Reg.t0 (-1L);
  Asm.br a Instr.Gtz Reg.t0 Reg.zero "head";
  Asm.halt a;
  Asm.assemble a ~entry:"main"

let test_occurrence_index () =
  let tr = capture (loop_program 5) in
  let occ = Occurrence.build tr in
  (* head block body pc = 0x1004 occurs 5 times *)
  Alcotest.(check int) "five iterations" 5 (Occurrence.count occ ~pc:0x1004);
  Alcotest.(check int) "first after 0" 3
    (Occurrence.next_after occ ~pc:0x1004 ~index:1);
  Alcotest.(check int) "after index 3" 5
    (Occurrence.next_after occ ~pc:0x1004 ~index:3);
  Alcotest.(check int) "after the last" (-1)
    (Occurrence.next_after occ ~pc:0x1004 ~index:9);
  Alcotest.(check int) "unknown pc" (-1)
    (Occurrence.next_after occ ~pc:0x9999 ~index:0)

(* Properties over random loop programs. *)
let prop_producers_precede_consumers =
  QCheck.Test.make ~name:"producer index < consumer index" ~count:40
    QCheck.(int_range 1 40)
    (fun n ->
      let tr = capture (loop_program n) in
      let ok = ref true in
      for i = 0 to Tracer.length tr - 1 do
        let chk p = if p >= 0 && p >= i then ok := false in
        chk tr.Tracer.src1.(i);
        chk tr.Tracer.src2.(i);
        chk tr.Tracer.memsrc.(i)
      done;
      !ok)

let prop_producer_defines_register =
  QCheck.Test.make ~name:"producers define a register read by the consumer"
    ~count:40
    QCheck.(int_range 1 40)
    (fun n ->
      let tr = capture (loop_program n) in
      let instr i = Program.fetch tr.Tracer.program tr.Tracer.pc.(i) in
      let ok = ref true in
      for i = 0 to Tracer.length tr - 1 do
        let uses = Pf_isa.Instr.uses (instr i) in
        let chk p =
          if p >= 0 then
            match Pf_isa.Instr.def (instr p) with
            | Some r -> if not (List.mem r uses) then ok := false
            | None -> ok := false
        in
        chk tr.Tracer.src1.(i);
        chk tr.Tracer.src2.(i)
      done;
      !ok)

let prop_occurrence_complete =
  QCheck.Test.make ~name:"occurrence index finds every instance" ~count:30
    QCheck.(int_range 1 30)
    (fun n ->
      let tr = capture (loop_program n) in
      let occ = Occurrence.build tr in
      (* walking next_after from -1 must enumerate all indices of a pc *)
      let pc = 0x1004 in
      let rec walk acc idx =
        match Occurrence.next_after occ ~pc ~index:idx with
        | -1 -> List.rev acc
        | j -> walk (j :: acc) j
      in
      let found = walk [] (-1) in
      let expected = ref [] in
      Array.iteri
        (fun i x -> if x = pc then expected := i :: !expected)
        tr.Tracer.pc;
      found = List.rev !expected)

(* Limits: the oracle can never be slower than the single flow, and a
   straight dependence chain pins both to IPC ~1. *)
let test_limits_ordering () =
  let tr = capture (loop_program 50) in
  let sf = Limits.single_flow_ipc tr in
  let df = Limits.dataflow_ipc tr in
  Alcotest.(check bool)
    (Printf.sprintf "oracle %.2f >= single-flow %.2f" df sf)
    true (df >= sf -. 1e-9);
  Alcotest.(check bool) "both positive" true (sf > 0. && df > 0.)

let test_limits_serial_chain () =
  (* t0 <- t0 + 1 repeated: a pure chain, oracle IPC ~1 *)
  let a = Asm.create () in
  Asm.proc a "main";
  Asm.li a Reg.t0 0L;
  for _ = 1 to 50 do
    Asm.alui a Instr.Add Reg.t0 Reg.t0 1L
  done;
  Asm.halt a;
  let tr = capture (Asm.assemble a ~entry:"main") in
  let df = Limits.dataflow_ipc tr in
  Alcotest.(check bool)
    (Printf.sprintf "chain oracle IPC %.2f ~ 1" df)
    true
    (df > 0.8 && df < 1.3)

let test_limits_parallel_block () =
  (* 50 independent li instructions: oracle IPC ~ n *)
  let a = Asm.create () in
  Asm.proc a "main";
  for k = 1 to 50 do
    Asm.li a (8 + (k mod 18)) (Int64.of_int k)
  done;
  Asm.halt a;
  let tr = capture (Asm.assemble a ~entry:"main") in
  let df = Limits.dataflow_ipc tr in
  Alcotest.(check bool)
    (Printf.sprintf "parallel oracle IPC %.1f large" df)
    true (df > 20.)

let suite =
  [ ( "trace",
      [ case "capture bounds and order" test_capture_bounds_and_order;
        case "capture full run" test_capture_full_run;
        case "register producers" test_register_producers;
        case "memory producer" test_memory_producer;
        case "partial overlap" test_partial_overlap;
        case "fast-forwarded producers" test_before_window_producer;
        case "occurrence index" test_occurrence_index;
        Prop.to_alcotest prop_producers_precede_consumers;
        Prop.to_alcotest prop_producer_defines_register;
        Prop.to_alcotest prop_occurrence_complete ] );
    ( "trace.limits",
      [ case "oracle >= single flow" test_limits_ordering;
        case "serial chain" test_limits_serial_chain;
        case "parallel block" test_limits_parallel_block ] ) ]
