let compute (tr : Tracer.t) =
  let program = tr.Tracer.program in
  let reg_writer = Array.make Pf_isa.Reg.count (-1) in
  let mem_writer : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  for i = 0 to tr.Tracer.n - 1 do
    let instr = Pf_isa.Program.fetch program tr.Tracer.pc.(i) in
    (match Pf_isa.Instr.uses instr with
    | [] -> ()
    | [ r ] -> tr.Tracer.src1.(i) <- reg_writer.(r)
    | [ r1; r2 ] ->
        tr.Tracer.src1.(i) <- reg_writer.(r1);
        tr.Tracer.src2.(i) <- reg_writer.(r2)
    | _ -> assert false (* no instruction reads more than two registers *));
    let addr = tr.Tracer.addr.(i) in
    (match instr with
    | Pf_isa.Instr.Load (w, _, _, _, _) ->
        let producer = ref (-1) in
        for b = addr to addr + Pf_isa.Instr.width_bytes w - 1 do
          match Hashtbl.find_opt mem_writer b with
          | Some j -> if j > !producer then producer := j
          | None -> ()
        done;
        tr.Tracer.memsrc.(i) <- !producer
    | Pf_isa.Instr.Store (w, _, _, _) ->
        for b = addr to addr + Pf_isa.Instr.width_bytes w - 1 do
          Hashtbl.replace mem_writer b i
        done
    | _ -> ());
    match Pf_isa.Instr.def instr with
    | Some r -> reg_writer.(r) <- i
    | None -> ()
  done
