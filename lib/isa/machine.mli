(** Architectural (functional) simulator — the correctness oracle.

    Executes one instruction per {!step} in program order against a flat
    little-endian byte memory. The timing models in [pf_uarch] consume the
    event stream this machine produces and never re-execute semantics, so
    architectural results are correct by construction (the role the
    paper's architectural checker plays, Section 3.2). *)

(** What one dynamic instruction did. *)
type event = {
  pc : int;
  instr : Instr.t;
  next_pc : int;      (** PC of the next instruction in program order *)
  taken : bool;       (** for branches/jumps: did control transfer? *)
  addr : int;         (** effective address for loads/stores, else -1 *)
}

type t

(** [create ?mem_size program] — memory is [mem_size] bytes (default
    4 MiB), zero-filled; [$sp] starts near the top; the PC starts at the
    program's entry. *)
val create : ?mem_size:int -> Program.t -> t

val pc : t -> int
val halted : t -> bool
val reg : t -> Reg.t -> int64
val set_reg : t -> Reg.t -> int64 -> unit

(** Instructions executed so far. *)
val icount : t -> int

(** {1 Memory access (also used for workload data initialisation)} *)

val mem_size : t -> int
val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_i64 : t -> int -> int64
val write_i64 : t -> int -> int64 -> unit
val read_i32 : t -> int -> int32
val write_i32 : t -> int -> int32 -> unit

(** ALU and branch-comparison semantics, exposed so reference
    evaluators (e.g. the Mini interpreter) share one definition. *)
val alu_eval : Instr.alu_op -> int64 -> int64 -> int64

val cond_eval : Instr.cmp -> int64 -> int64 -> bool

(** Execute one instruction. [None] when the machine has halted. *)
val step : t -> event option

(** [run m ~max_instrs ~on_event] steps until halt or the instruction
    budget is exhausted; returns the number of instructions executed. *)
val run : t -> max_instrs:int -> on_event:(event -> unit) -> int

(** [skip m n] executes up to [n] instructions discarding events
    (fast-forward); returns the number executed. *)
val skip : t -> int -> int

(** A hex MD5 of the full architectural state (memory size, pc, halt
    flag, instruction count, registers, and every byte ever written).
    Two machines with equal digests behave identically from here on;
    the cost is an MD5 over the written span only, not the whole
    image. Used to fingerprint workload [setup] effects for the trace
    store. *)
val state_digest : t -> string
