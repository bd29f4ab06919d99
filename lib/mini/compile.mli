(** Lowering Mini to [pf_isa] machine code.

    The code shapes match what a classic RISC compiler emits, so the CFG
    analyses and spawn policies see realistic structure:

    - locals live in callee-saved registers (s0..s7) with stack-slot
      overflow; temporaries use t0..t9;
    - [While] compiles to a guard branch plus a bottom-tested loop, so
      the loop branch sits in the latch block (as in the paper's twolf
      example, Figure 6);
    - [If] falls through into the then-arm — a simple hammock whose join
      is the branch block's immediate postdominator;
    - [Switch] compiles to a bounds check plus a memory jump table and a
      genuine indirect jump with declared targets (the paper's "other"
      spawn category).

    A synthesised [__start] stub fills the jump tables, calls the entry
    function, and halts. *)

type compiled = {
  program : Pf_isa.Program.t;
  address_of : string -> int;
      (** address of a user global. @raise Not_found for unknown names *)
}

(** [compile p] places code from [0x1000] and globals and switch tables
    from [0x100000]; [__start] calls the function named ["main"].
    @raise Invalid_argument on unknown identifiers, duplicate functions,
    a missing [main], more than 4 parameters, expression depth beyond
    the temporary pool, or a [Call] in a nested expression position. *)
val compile : Ast.program -> compiled
