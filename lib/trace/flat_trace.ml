type t = {
  n : int;
  pc : int array;
  next_pc : int array;
  taken : bool array;
  addr : int array;
  kind : int array;
  lat : int array;
  src1 : int array;
  src2 : int array;
  src1_sp : Bytes.t;
  src2_sp : Bytes.t;
  memsrc : int array;
  backward : Bytes.t;
}

let k_plain = 0
let k_load = 1
let k_store = 2
let k_branch = 3
let k_jump = 4
let k_call = 5
let k_return = 6
let k_ind_jump = 7
let k_ind_call = 8

(* The kind/latency/sp-use/backward-branch columns are static per pc
   (one pc always fetches the same instruction), but a 60k-instruction
   window revisits the same few hundred pcs thousands of times. Compute
   each pc's static info once, packed into one int in a pc-indexed
   table, instead of re-running Instr.uses (which allocates a list) and
   the kind match per dynamic record. Output is byte-identical to the
   direct computation. *)
let info_kind_mask = 0xf
let info_src1_sp = 0x10
let info_src2_sp = 0x20
let info_backward = 0x40
let info_lat_shift = 7

let static_info (d : Dyn.t) =
  let info = ref 0 in
  (match Pf_isa.Instr.uses d.Dyn.instr with
  | [ r ] -> if r = Pf_isa.Reg.sp then info := !info lor info_src1_sp
  | [ r1; r2 ] ->
      if r1 = Pf_isa.Reg.sp then info := !info lor info_src1_sp;
      if r2 = Pf_isa.Reg.sp then info := !info lor info_src2_sp
  | _ -> ());
  let kind =
    match d.Dyn.instr with
    | Pf_isa.Instr.Load _ -> k_load
    | Pf_isa.Instr.Store _ -> k_store
    | Pf_isa.Instr.Br (_, _, _, target) ->
        if target < d.Dyn.pc then info := !info lor info_backward;
        k_branch
    | Pf_isa.Instr.J _ -> k_jump
    | Pf_isa.Instr.Jal _ -> k_call
    | Pf_isa.Instr.Jr r when r = Pf_isa.Reg.ra -> k_return
    | Pf_isa.Instr.Jr _ -> k_ind_jump
    | Pf_isa.Instr.Jalr _ -> k_ind_call
    | _ -> k_plain
  in
  !info lor kind lor (Pf_isa.Instr.latency d.Dyn.instr lsl info_lat_shift)

let of_trace (trace : Tracer.t) =
  let dyns = trace.Tracer.dyns in
  let n = Array.length dyns in
  if n = 0 then invalid_arg "Flat_trace.of_trace: empty trace";
  let pc = Array.make n 0 in
  let next_pc = Array.make n 0 in
  let taken = Array.make n false in
  let addr = Array.make n (-1) in
  let kind = Array.make n 0 in
  let lat = Array.make n 1 in
  let src1 = Array.make n (-1) in
  let src2 = Array.make n (-1) in
  let src1_sp = Bytes.make n '\000' in
  let src2_sp = Bytes.make n '\000' in
  let memsrc = Array.make n (-1) in
  let backward = Bytes.make n '\000' in
  let max_pc = ref 0 in
  Array.iter
    (fun (d : Dyn.t) -> if d.Dyn.pc > !max_pc then max_pc := d.Dyn.pc)
    dyns;
  let memo = Array.make (!max_pc + 1) (-1) in
  Array.iteri
    (fun i (d : Dyn.t) ->
      pc.(i) <- d.Dyn.pc;
      next_pc.(i) <- d.Dyn.next_pc;
      taken.(i) <- d.Dyn.taken;
      addr.(i) <- d.Dyn.addr;
      src1.(i) <- d.Dyn.src1;
      src2.(i) <- d.Dyn.src2;
      memsrc.(i) <- d.Dyn.memsrc;
      let info =
        let cached = memo.(d.Dyn.pc) in
        if cached >= 0 then cached
        else begin
          let info = static_info d in
          memo.(d.Dyn.pc) <- info;
          info
        end
      in
      if info land info_src1_sp <> 0 then Bytes.set src1_sp i '\001';
      if info land info_src2_sp <> 0 then Bytes.set src2_sp i '\001';
      if info land info_backward <> 0 then Bytes.set backward i '\001';
      lat.(i) <- info lsr info_lat_shift;
      kind.(i) <- info land info_kind_mask)
    dyns;
  { n; pc; next_pc; taken; addr; kind; lat; src1; src2; src1_sp; src2_sp;
    memsrc; backward }
