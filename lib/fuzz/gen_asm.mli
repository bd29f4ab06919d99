(** Seeded random structured assembly programs for differential fuzzing.

    Programs are emitted through {!Pf_isa.Asm} as a [main] procedure
    plus up to a few leaf procedures, built from structured regions:

    - straight-line ALU/load/store blocks over a masked scratch region
      (so every access stays inside it);
    - hammocks (forward conditional branch, two arms, a join);
    - bottom-tested counted loops, optionally with a conditional break,
      nested up to two deep — each loop owns a dedicated counter
      register initialised to a small constant, so termination is by
      construction;
    - calls to leaf procedures (acyclic call graph);
    - indirect jumps through in-memory jump tables: the table is filled
      inline with [la] + stores just before the dispatch (so the table
      load has an in-window producing store), and the possible targets
      are declared via {!Pf_isa.Asm.indirect_targets}.

    Generation is a pure function of the seed: [(seed, index)] in a
    repro file fully determines the program. *)

val scratch_base : int
val scratch_slots : int

val generate : seed:int -> Pf_isa.Program.t
