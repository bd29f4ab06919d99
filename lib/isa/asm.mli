(** A small two-pass assembler: emit instructions with symbolic branch
    targets, then {!assemble} resolves labels to absolute PCs.

    Typical use:
    {[
      let a = Asm.create () in
      Asm.proc a "main";
      Asm.li a Reg.t0 42L;
      Asm.label a "loop";
      Asm.alui a Instr.Add Reg.t0 Reg.t0 (-1L);
      Asm.br a Instr.Gtz Reg.t0 Reg.zero "loop";
      Asm.halt a;
      let prog = Asm.assemble a ~entry:"main"
    ]} *)

type t

val create : ?base:int -> unit -> t

(** [proc a name] opens a procedure at the current PC; the previous
    procedure (if any) is closed at the preceding instruction. *)
val proc : t -> string -> unit

(** [label a name] binds [name] to the current PC.
    @raise Invalid_argument on rebinding. *)
val label : t -> string -> unit

(** [fresh a stem] returns a unique label name (not yet bound). *)
val fresh : t -> string -> string

(** {1 Emitters} *)

val alu : t -> Instr.alu_op -> Reg.t -> Reg.t -> Reg.t -> unit
val alui : t -> Instr.alu_op -> Reg.t -> Reg.t -> int64 -> unit
val li : t -> Reg.t -> int64 -> unit
val mv : t -> Reg.t -> Reg.t -> unit
val load : t -> Instr.width -> ?signed:bool -> Reg.t -> Reg.t -> int -> unit
val store : t -> Instr.width -> Reg.t -> Reg.t -> int -> unit

(** [br a cmp rs rt target_label] *)
val br : t -> Instr.cmp -> Reg.t -> Reg.t -> string -> unit

val j : t -> string -> unit
val jal : t -> string -> unit
val jr : t -> Reg.t -> unit
val jalr : t -> Reg.t -> unit
val halt : t -> unit

(** [la a rd label] loads the PC bound to a label (for jump tables). *)
val la : t -> Reg.t -> string -> unit

(** Declare the possible targets (labels) of the most recently emitted
    indirect jump. *)
val indirect_targets : t -> string list -> unit

(** Resolve labels and produce the program.
    @raise Invalid_argument on undefined labels. *)
val assemble : t -> entry:string -> Program.t

(** PC bound to a label after assembly preparation — usable any time all
    referenced labels are already bound. *)
val pc_of_label : t -> string -> int
