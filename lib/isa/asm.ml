(* Emitted instructions carry label references; [assemble] patches them. *)

type pending =
  | Ready of Instr.t
  | Br_to of Instr.cmp * Reg.t * Reg.t * string
  | J_to of string
  | Jal_to of string
  | La of Reg.t * string

type t = {
  base : int;
  mutable out : pending list; (* reversed *)
  mutable n : int;
  labels : (string, int) Hashtbl.t; (* label -> instruction index *)
  mutable fresh_counter : int;
  mutable procs_rev : (string * int) list; (* name, start index *)
  mutable indirect : (int * string list) list; (* instr index -> target labels *)
  mutable last_indirect : int option;
}

let create ?(base = 0x1000) () =
  { base; out = []; n = 0; labels = Hashtbl.create 64; fresh_counter = 0;
    procs_rev = []; indirect = []; last_indirect = None }

let emit a p =
  a.out <- p :: a.out;
  a.n <- a.n + 1

let proc a name =
  a.procs_rev <- (name, a.n) :: a.procs_rev;
  if Hashtbl.mem a.labels name then
    invalid_arg (Printf.sprintf "Asm.proc: %s already defined" name);
  Hashtbl.replace a.labels name a.n

let label a name =
  if Hashtbl.mem a.labels name then
    invalid_arg (Printf.sprintf "Asm.label: %s already defined" name);
  Hashtbl.replace a.labels name a.n

let fresh a stem =
  a.fresh_counter <- a.fresh_counter + 1;
  Printf.sprintf "%s__%d" stem a.fresh_counter

let alu a op rd rs rt = emit a (Ready (Instr.Alu (op, rd, rs, rt)))
let alui a op rd rs imm = emit a (Ready (Instr.Alui (op, rd, rs, imm)))
let li a rd imm = emit a (Ready (Instr.Li (rd, imm)))
let mv a rd rs = emit a (Ready (Instr.Alui (Instr.Add, rd, rs, 0L)))

let load a w ?(signed = true) rd base off =
  emit a (Ready (Instr.Load (w, signed, rd, base, off)))

let store a w rt base off = emit a (Ready (Instr.Store (w, rt, base, off)))
let br a cmp rs rt target = emit a (Br_to (cmp, rs, rt, target))
let j a target = emit a (J_to target)
let jal a target = emit a (Jal_to target)

let jr a r =
  if r <> Reg.ra then a.last_indirect <- Some a.n;
  emit a (Ready (Instr.Jr r))

let jalr a r = emit a (Ready (Instr.Jalr r))
let halt a = emit a (Ready Instr.Halt)
let la a rd target = emit a (La (rd, target))

let indirect_targets a labels =
  match a.last_indirect with
  | Some idx ->
      a.indirect <- (idx, labels) :: a.indirect;
      a.last_indirect <- None
  | None -> invalid_arg "Asm.indirect_targets: no preceding indirect jump"

let pc_of_label a name =
  match Hashtbl.find_opt a.labels name with
  | Some idx -> a.base + (idx * Instr.bytes_per_instr)
  | None -> invalid_arg (Printf.sprintf "Asm: undefined label %s" name)

let assemble a ~entry =
  let resolve = pc_of_label a in
  let code =
    a.out |> List.rev
    |> List.map (function
         | Ready i -> i
         | Br_to (cmp, rs, rt, l) -> Instr.Br (cmp, rs, rt, resolve l)
         | J_to l -> Instr.J (resolve l)
         | Jal_to l -> Instr.Jal (resolve l)
         | La (rd, l) -> Instr.Li (rd, Int64.of_int (resolve l)))
    |> Array.of_list
  in
  let procs =
    let rec close = function
      | [] -> []
      | (name, start) :: rest ->
          let last_idx =
            match rest with [] -> a.n - 1 | (_, next_start) :: _ -> next_start - 1
          in
          { Program.name;
            entry = a.base + (start * Instr.bytes_per_instr);
            last = a.base + (last_idx * Instr.bytes_per_instr) }
          :: close rest
    in
    close (List.rev a.procs_rev)
  in
  let indirect_targets =
    List.map
      (fun (idx, labels) ->
        (a.base + (idx * Instr.bytes_per_instr), List.map resolve labels))
      a.indirect
  in
  { Program.base = a.base; code; entry_pc = resolve entry; procs;
    indirect_targets }
