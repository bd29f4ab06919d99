(** One dynamic instruction of a captured execution window.

    Producer fields are filled by {!Depinfo.compute}: they hold the
    window index of the instruction that produced the value, or -1 when
    the producer executed before the window (always-ready). *)

type t = {
  pc : int;
  instr : Pf_isa.Instr.t;
  next_pc : int;
  taken : bool;
  addr : int;            (** effective address, -1 for non-memory ops *)
  mem_bytes : int;       (** access size in bytes, 0 for non-memory ops *)
  mutable src1 : int;    (** producer of the first register source *)
  mutable src2 : int;    (** producer of the second register source *)
  mutable memsrc : int;  (** producing store for a load *)
}

val of_event : Pf_isa.Machine.event -> t

val is_load : t -> bool
val is_store : t -> bool
