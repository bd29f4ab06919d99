type t = {
  program : Pf_isa.Program.t;
  fast_forwarded : int;
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

let create program ~fast_forwarded n =
  { program;
    fast_forwarded;
    n;
    pc = Array.make n 0;
    next_pc = Array.make n 0;
    taken = Array.make n false;
    addr = Array.make n (-1);
    kind = Array.make n 0;
    lat = Array.make n 1;
    src1 = Array.make n (-1);
    src2 = Array.make n (-1);
    src1_sp = Bytes.make n '\000';
    src2_sp = Bytes.make n '\000';
    memsrc = Array.make n (-1);
    backward = Bytes.make n '\000' }

(* The kind/latency/sp-use/backward-branch columns are static per pc
   (one pc always fetches the same instruction), but a 60k-instruction
   window revisits the same few hundred pcs thousands of times. Compute
   each instruction slot's static columns once, packed into one int,
   instead of re-running Instr.uses (which allocates a list) and the
   kind match per dynamic instruction. *)
let info_kind_mask = 0xf
let info_src1_sp = 0x10
let info_src2_sp = 0x20
let info_backward = 0x40
let info_lat_shift = 7

let static_info ~pc instr =
  let sp r = if r = Pf_isa.Reg.sp then 1 else 0 in
  let uses =
    match Pf_isa.Instr.uses instr with
    | [ r ] -> sp r * info_src1_sp
    | [ r1; r2 ] -> (sp r1 * info_src1_sp) lor (sp r2 * info_src2_sp)
    | _ -> 0
  in
  let backward =
    match instr with
    | Pf_isa.Instr.Br (_, _, _, target) when target < pc -> info_backward
    | _ -> 0
  in
  uses lor backward lor Pf_isa.Instr.kind instr
  lor (Pf_isa.Instr.latency instr lsl info_lat_shift)

let filler t =
  let program = t.program in
  let memo = Array.make (Pf_isa.Program.length program) (-1) in
  fun i ~pc ~next_pc ~taken ~addr ->
    let slot = Pf_isa.Program.index_of_pc program pc in
    let info =
      let cached = memo.(slot) in
      if cached >= 0 then cached
      else begin
        let info = static_info ~pc program.Pf_isa.Program.code.(slot) in
        memo.(slot) <- info;
        info
      end
    in
    t.pc.(i) <- pc;
    t.next_pc.(i) <- next_pc;
    t.taken.(i) <- taken;
    t.addr.(i) <- addr;
    t.kind.(i) <- info land info_kind_mask;
    t.lat.(i) <- info lsr info_lat_shift;
    if info land info_src1_sp <> 0 then Bytes.set t.src1_sp i '\001';
    if info land info_src2_sp <> 0 then Bytes.set t.src2_sp i '\001';
    if info land info_backward <> 0 then Bytes.set t.backward i '\001'

(* the first [n] instructions of a window filled no further *)
let prefix t n =
  if n = t.n then t
  else
    let a c = Array.sub c 0 n and b c = Bytes.sub c 0 n in
    { t with
      n;
      pc = a t.pc;
      next_pc = a t.next_pc;
      taken = a t.taken;
      addr = a t.addr;
      kind = a t.kind;
      lat = a t.lat;
      src1 = a t.src1;
      src2 = a t.src2;
      src1_sp = b t.src1_sp;
      src2_sp = b t.src2_sp;
      memsrc = a t.memsrc;
      backward = b t.backward }

(* The window bounds the event count ([Machine.run] never emits more
   than [max_instrs]), so the columns are allocated once, at full size,
   and cut down only if the program halts first. *)
let capture_window machine ~window ~fast_forwarded =
  let t =
    create (Pf_isa.Machine.program machine) ~fast_forwarded (max window 0)
  in
  let fill = filler t in
  let i = ref 0 in
  let on_event (ev : Pf_isa.Machine.event) =
    fill !i ~pc:ev.Pf_isa.Machine.pc ~next_pc:ev.Pf_isa.Machine.next_pc
      ~taken:ev.Pf_isa.Machine.taken ~addr:ev.Pf_isa.Machine.addr;
    incr i
  in
  prefix t (Pf_isa.Machine.run machine ~max_instrs:window ~on_event)

let capture machine ~fast_forward ~window =
  let skipped = Pf_isa.Machine.skip machine fast_forward in
  capture_window machine ~window ~fast_forwarded:skipped

let length t = t.n
