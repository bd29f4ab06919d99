(** Producer analysis over a captured window: one pass that fills, for
    every dynamic instruction, the window indices of the instructions
    producing its register sources and (for loads) its memory input.
    Byte-granular memory tracking: a load's producer is the youngest
    store writing any byte the load reads. *)

(** Fills [src1]/[src2]/[memsrc] in place, reading each instruction's
    operands from the window's program by pc. *)
val compute : Tracer.t -> unit
