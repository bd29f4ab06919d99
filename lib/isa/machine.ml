type event = {
  pc : int;
  instr : Instr.t;
  next_pc : int;
  taken : bool;
  addr : int;
}

type t = {
  program : Program.t;
  regs : int64 array;
  mem : Bytes.t;
  mutable pc : int;
  mutable halted : bool;
  mutable icount : int;
  (* write watermarks: every byte ever stored lies in [wlo, whi); bytes
     outside are still their initial zeros. Lets state_digest hash only
     the touched span instead of the whole image. *)
  mutable wlo : int;
  mutable whi : int;
}

let default_mem_size = 4 * 1024 * 1024

let create ?(mem_size = default_mem_size) program =
  let m =
    { program;
      regs = Array.make Reg.count 0L;
      mem = Bytes.make mem_size '\000';
      pc = program.Program.entry_pc;
      halted = false;
      icount = 0;
      wlo = mem_size;
      whi = 0 }
  in
  m.regs.(Reg.sp) <- Int64.of_int (mem_size - 64);
  m

let pc m = m.pc
let halted m = m.halted
let reg m r = m.regs.(r)

let set_reg m r v = if r <> Reg.zero then m.regs.(r) <- v

let icount m = m.icount

let mem_size m = Bytes.length m.mem

let check_addr m addr n =
  if addr < 0 || addr + n > Bytes.length m.mem then
    invalid_arg (Printf.sprintf "Machine: address 0x%x out of bounds" addr)

let note_write m addr n =
  if addr < m.wlo then m.wlo <- addr;
  if addr + n > m.whi then m.whi <- addr + n

let read_u8 m addr = check_addr m addr 1; Bytes.get_uint8 m.mem addr
let write_u8 m addr v =
  check_addr m addr 1; note_write m addr 1;
  Bytes.set_uint8 m.mem addr (v land 0xff)
let read_i64 m addr = check_addr m addr 8; Bytes.get_int64_le m.mem addr
let write_i64 m addr v =
  check_addr m addr 8; note_write m addr 8; Bytes.set_int64_le m.mem addr v
let read_i32 m addr = check_addr m addr 4; Bytes.get_int32_le m.mem addr
let write_i32 m addr v =
  check_addr m addr 4; note_write m addr 4; Bytes.set_int32_le m.mem addr v

let load_value m w signed addr =
  match (w, signed) with
  | Instr.B, true -> check_addr m addr 1; Int64.of_int (Bytes.get_int8 m.mem addr)
  | Instr.B, false -> Int64.of_int (read_u8 m addr)
  | Instr.H, true ->
      check_addr m addr 2; Int64.of_int (Bytes.get_int16_le m.mem addr)
  | Instr.H, false ->
      check_addr m addr 2; Int64.of_int (Bytes.get_uint16_le m.mem addr)
  | Instr.W, true -> Int64.of_int32 (read_i32 m addr)
  | Instr.W, false -> Int64.logand (Int64.of_int32 (read_i32 m addr)) 0xffffffffL
  | Instr.D, _ -> read_i64 m addr

let store_value m w addr v =
  match w with
  | Instr.B -> write_u8 m addr (Int64.to_int (Int64.logand v 0xffL))
  | Instr.H ->
      check_addr m addr 2;
      note_write m addr 2;
      Bytes.set_int16_le m.mem addr (Int64.to_int (Int64.logand v 0xffffL))
  | Instr.W -> write_i32 m addr (Int64.to_int32 v)
  | Instr.D -> write_i64 m addr v

let alu_eval op a b =
  let open Int64 in
  match op with
  | Instr.Add -> add a b
  | Instr.Sub -> sub a b
  | Instr.And -> logand a b
  | Instr.Or -> logor a b
  | Instr.Xor -> logxor a b
  | Instr.Nor -> lognot (logor a b)
  | Instr.Sll -> shift_left a (to_int b land 63)
  | Instr.Srl -> shift_right_logical a (to_int b land 63)
  | Instr.Sra -> shift_right a (to_int b land 63)
  | Instr.Slt -> if compare a b < 0 then 1L else 0L
  | Instr.Sltu -> if unsigned_compare a b < 0 then 1L else 0L
  | Instr.Mul -> mul a b
  | Instr.Div -> if b = 0L then 0L else div a b
  | Instr.Rem -> if b = 0L then 0L else rem a b

let cond_eval cmp a b =
  match cmp with
  | Instr.Eq -> a = b
  | Instr.Ne -> a <> b
  | Instr.Lez -> Int64.compare a 0L <= 0
  | Instr.Gtz -> Int64.compare a 0L > 0
  | Instr.Gez -> Int64.compare a 0L >= 0
  | Instr.Ltz -> Int64.compare a 0L < 0

let step m =
  if m.halted then None
  else begin
    let pc = m.pc in
    let instr = Program.fetch m.program pc in
    let fallthrough = pc + Instr.bytes_per_instr in
    let next_pc = ref fallthrough in
    let taken = ref false in
    let addr = ref (-1) in
    (match instr with
    | Instr.Alu (op, rd, rs, rt) ->
        set_reg m rd (alu_eval op m.regs.(rs) m.regs.(rt))
    | Instr.Alui (op, rd, rs, imm) -> set_reg m rd (alu_eval op m.regs.(rs) imm)
    | Instr.Li (rd, imm) -> set_reg m rd imm
    | Instr.Load (w, signed, rd, base, off) ->
        let a = Int64.to_int m.regs.(base) + off in
        addr := a;
        set_reg m rd (load_value m w signed a)
    | Instr.Store (w, rt, base, off) ->
        let a = Int64.to_int m.regs.(base) + off in
        addr := a;
        store_value m w a m.regs.(rt)
    | Instr.Br (cmp, rs, rt, target) ->
        if cond_eval cmp m.regs.(rs) m.regs.(rt) then begin
          taken := true;
          next_pc := target
        end
    | Instr.J target ->
        taken := true;
        next_pc := target
    | Instr.Jal target ->
        set_reg m Reg.ra (Int64.of_int fallthrough);
        taken := true;
        next_pc := target
    | Instr.Jr r ->
        taken := true;
        next_pc := Int64.to_int m.regs.(r)
    | Instr.Jalr r ->
        let target = Int64.to_int m.regs.(r) in
        set_reg m Reg.ra (Int64.of_int fallthrough);
        taken := true;
        next_pc := target
    | Instr.Halt ->
        m.halted <- true;
        next_pc := pc
    | Instr.Nop -> ());
    m.regs.(Reg.zero) <- 0L;
    m.pc <- !next_pc;
    m.icount <- m.icount + 1;
    Some { pc; instr; next_pc = !next_pc; taken = !taken; addr = !addr }
  end

let run m ~max_instrs ~on_event =
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < max_instrs do
    match step m with
    | Some ev ->
        on_event ev;
        incr n
    | None -> continue := false
  done;
  !n

let skip m n = run m ~max_instrs:n ~on_event:ignore

let state_digest m =
  (* Bytes outside [wlo, whi) were never written and are still zero, so
     hashing the touched span plus the watermarks covers the full image
     without paying an MD5 over (typically) megabytes of zeros. *)
  let lo, hi = if m.wlo < m.whi then (m.wlo, m.whi) else (0, 0) in
  let meta = Buffer.create 320 in
  Buffer.add_string meta "polyflow-machine-state";
  Buffer.add_char meta '\n';
  List.iter
    (fun v ->
      Buffer.add_string meta (string_of_int v);
      Buffer.add_char meta '\n')
    [ Bytes.length m.mem; m.pc; (if m.halted then 1 else 0); m.icount; lo; hi ];
  Array.iter (fun r -> Buffer.add_int64_le meta r) m.regs;
  Buffer.add_string meta (Digest.subbytes m.mem lo (hi - lo));
  Digest.to_hex (Digest.bytes (Buffer.to_bytes meta))
