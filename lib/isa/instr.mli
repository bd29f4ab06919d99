(** Instructions of the MIPS-like 64-bit ISA.

    Program counters are byte addresses; every instruction occupies 4
    bytes. Branch and jump targets are absolute PCs (the assembler in
    {!Asm} resolves labels to absolute targets). *)

type alu_op =
  | Add | Sub | And | Or | Xor | Nor
  | Sll | Srl | Sra
  | Slt | Sltu
  | Mul | Div | Rem

(** Memory access widths in bytes: 1, 2, 4, 8. *)
type width = B | H | W | D

(** Comparison kinds for conditional branches. [Eq]/[Ne] compare two
    registers; the rest compare one register against zero. *)
type cmp = Eq | Ne | Lez | Gtz | Gez | Ltz

type t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t   (** [rd <- rs op rt] *)
  | Alui of alu_op * Reg.t * Reg.t * int64  (** [rd <- rs op imm] *)
  | Li of Reg.t * int64                     (** [rd <- imm] *)
  | Load of width * bool * Reg.t * Reg.t * int
      (** [Load (w, signed, rd, base, off)]: [rd <- mem_w[base + off]] *)
  | Store of width * Reg.t * Reg.t * int
      (** [Store (w, rt, base, off)]: [mem_w[base + off] <- rt] *)
  | Br of cmp * Reg.t * Reg.t * int         (** conditional branch to PC *)
  | J of int                                (** unconditional jump to PC *)
  | Jal of int                              (** call: [ra <- pc+4], jump *)
  | Jr of Reg.t                             (** indirect jump / return *)
  | Jalr of Reg.t                           (** indirect call through reg *)
  | Halt                                    (** stop the machine *)
  | Nop

val bytes_per_instr : int
val width_bytes : width -> int

(** Register written, if any. Writes to [Reg.zero] are reported as [None]. *)
val def : t -> Reg.t option

(** Registers read (deduplicated, [Reg.zero] excluded). *)
val uses : t -> Reg.t list

val is_cond_branch : t -> bool

(** [Jal] or [Jalr]. *)
val is_call : t -> bool

(** [Jr $ra]. *)
val is_return : t -> bool

(** [Jr r] with [r <> $ra]. *)
val is_indirect_jump : t -> bool

val is_store : t -> bool

(** {1 Kind codes}

    One small int per instruction class the timing models tell apart:
    the captured window stores one per instruction, so the engine and
    the reconvergence predictor test an int instead of matching the
    instruction. [k_plain] is every ALU op, [li], [halt] and [nop];
    [k_call] is [jal], [k_ind_call] [jalr], [k_return] [jr $ra] and
    [k_ind_jump] any other [jr]. *)

val k_plain : int
val k_load : int
val k_store : int
val k_branch : int
val k_jump : int
val k_call : int
val k_return : int
val k_ind_jump : int
val k_ind_call : int
val kind : t -> int

(** Does this instruction end a basic block? *)
val is_block_terminator : t -> bool

(** Execution latency in cycles, excluding memory hierarchy time for
    loads (the cache model adds that): ALU 1, Mul 3, Div/Rem 12,
    everything else 1. *)
val latency : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
