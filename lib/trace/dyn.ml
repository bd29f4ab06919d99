type t = {
  pc : int;
  instr : Pf_isa.Instr.t;
  next_pc : int;
  taken : bool;
  addr : int;
  mem_bytes : int;
  mutable src1 : int;
  mutable src2 : int;
  mutable memsrc : int;
}

let of_event (ev : Pf_isa.Machine.event) =
  let mem_bytes =
    match ev.Pf_isa.Machine.instr with
    | Pf_isa.Instr.Load (w, _, _, _, _) | Pf_isa.Instr.Store (w, _, _, _) ->
        Pf_isa.Instr.width_bytes w
    | _ -> 0
  in
  { pc = ev.Pf_isa.Machine.pc;
    instr = ev.Pf_isa.Machine.instr;
    next_pc = ev.Pf_isa.Machine.next_pc;
    taken = ev.Pf_isa.Machine.taken;
    addr = ev.Pf_isa.Machine.addr;
    mem_bytes;
    src1 = -1;
    src2 = -1;
    memsrc = -1 }

let is_load d = Pf_isa.Instr.is_load d.instr
let is_store d = Pf_isa.Instr.is_store d.instr
