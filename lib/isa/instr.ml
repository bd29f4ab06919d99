type alu_op =
  | Add | Sub | And | Or | Xor | Nor
  | Sll | Srl | Sra
  | Slt | Sltu
  | Mul | Div | Rem

type width = B | H | W | D

type cmp = Eq | Ne | Lez | Gtz | Gez | Ltz

type t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t
  | Alui of alu_op * Reg.t * Reg.t * int64
  | Li of Reg.t * int64
  | Load of width * bool * Reg.t * Reg.t * int
  | Store of width * Reg.t * Reg.t * int
  | Br of cmp * Reg.t * Reg.t * int
  | J of int
  | Jal of int
  | Jr of Reg.t
  | Jalr of Reg.t
  | Halt
  | Nop

let bytes_per_instr = 4

let width_bytes = function B -> 1 | H -> 2 | W -> 4 | D -> 8

let def = function
  | Alu (_, rd, _, _) | Alui (_, rd, _, _) | Li (rd, _) | Load (_, _, rd, _, _) ->
      if rd = Reg.zero then None else Some rd
  | Jal _ | Jalr _ -> Some Reg.ra
  | Store _ | Br _ | J _ | Jr _ | Halt | Nop -> None

let uses instr =
  let regs =
    match instr with
    | Alu (_, _, rs, rt) -> [ rs; rt ]
    | Alui (_, _, rs, _) -> [ rs ]
    | Li _ -> []
    | Load (_, _, _, base, _) -> [ base ]
    | Store (_, rt, base, _) -> [ rt; base ]
    | Br ((Eq | Ne), rs, rt, _) -> [ rs; rt ]
    | Br (_, rs, _, _) -> [ rs ]
    | J _ | Jal _ -> []
    | Jr r | Jalr r -> [ r ]
    | Halt | Nop -> []
  in
  List.sort_uniq compare (List.filter (fun r -> r <> Reg.zero) regs)

let is_cond_branch = function Br _ -> true | _ -> false
let is_call = function Jal _ | Jalr _ -> true | _ -> false
let is_return = function Jr r -> r = Reg.ra | _ -> false
let is_indirect_jump = function Jr r -> r <> Reg.ra | _ -> false
let is_store = function Store _ -> true | _ -> false

let k_plain = 0
let k_load = 1
let k_store = 2
let k_branch = 3
let k_jump = 4
let k_call = 5
let k_return = 6
let k_ind_jump = 7
let k_ind_call = 8

let kind = function
  | Load _ -> k_load
  | Store _ -> k_store
  | Br _ -> k_branch
  | J _ -> k_jump
  | Jal _ -> k_call
  | Jr r when r = Reg.ra -> k_return
  | Jr _ -> k_ind_jump
  | Jalr _ -> k_ind_call
  | Alu _ | Alui _ | Li _ | Halt | Nop -> k_plain

let is_block_terminator = function
  | Br _ | J _ | Jal _ | Jr _ | Jalr _ | Halt -> true
  | Alu _ | Alui _ | Li _ | Load _ | Store _ | Nop -> false

let latency = function
  | Alu (op, _, _, _) | Alui (op, _, _, _) -> (
      match op with Mul -> 3 | Div | Rem -> 12 | _ -> 1)
  | _ -> 1

let alu_op_name = function
  | Add -> "add" | Sub -> "sub" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Nor -> "nor" | Sll -> "sll" | Srl -> "srl" | Sra -> "sra" | Slt -> "slt"
  | Sltu -> "sltu" | Mul -> "mul" | Div -> "div" | Rem -> "rem"

let cmp_name = function
  | Eq -> "beq" | Ne -> "bne" | Lez -> "blez" | Gtz -> "bgtz" | Gez -> "bgez"
  | Ltz -> "bltz"

let load_name w signed =
  let base = match w with B -> "lb" | H -> "lh" | W -> "lw" | D -> "ld" in
  if signed || w = D then base else base ^ "u"

let store_name = function B -> "sb" | H -> "sh" | W -> "sw" | D -> "sd"

let pp ppf = function
  | Alu (op, rd, rs, rt) ->
      Format.fprintf ppf "%s %a, %a, %a" (alu_op_name op) Reg.pp rd Reg.pp rs
        Reg.pp rt
  | Alui (op, rd, rs, imm) ->
      Format.fprintf ppf "%si %a, %a, %Ld" (alu_op_name op) Reg.pp rd Reg.pp rs imm
  | Li (rd, imm) -> Format.fprintf ppf "li %a, %Ld" Reg.pp rd imm
  | Load (w, signed, rd, base, off) ->
      Format.fprintf ppf "%s %a, %d(%a)" (load_name w signed) Reg.pp rd off Reg.pp
        base
  | Store (w, rt, base, off) ->
      Format.fprintf ppf "%s %a, %d(%a)" (store_name w) Reg.pp rt off Reg.pp base
  | Br ((Eq | Ne) as c, rs, rt, target) ->
      Format.fprintf ppf "%s %a, %a, 0x%x" (cmp_name c) Reg.pp rs Reg.pp rt target
  | Br (c, rs, _, target) ->
      Format.fprintf ppf "%s %a, 0x%x" (cmp_name c) Reg.pp rs target
  | J target -> Format.fprintf ppf "j 0x%x" target
  | Jal target -> Format.fprintf ppf "jal 0x%x" target
  | Jr r -> Format.fprintf ppf "jr %a" Reg.pp r
  | Jalr r -> Format.fprintf ppf "jalr %a" Reg.pp r
  | Halt -> Format.pp_print_string ppf "halt"
  | Nop -> Format.pp_print_string ppf "nop"

let to_string i = Format.asprintf "%a" pp i
