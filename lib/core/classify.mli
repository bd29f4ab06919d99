(** Compiler-side spawn-point extraction (Section 2 of the paper).

    For every procedure, builds the CFG, computes the postdominator tree,
    the loop forest and the hammock classification, and produces:

    - the immediate-postdominator spawn point of every block ending in a
      conditional branch, call, or indirect jump (categories [Loop_ft],
      [Proc_ft], [Hammock], [Other]); blocks whose ipostdom is the
      virtual procedure exit yield nothing;
    - the loop-iteration spawns of the "loop" heuristic: loop entry ->
      last (highest-addressed) latch block, the placement Section 2.3
      argues for.

    Blocks not ending in a branch get no spawn point — their successor
    will be fetched along the conventional flow path anyway
    (Section 2.2). *)

(** All potential spawn points of the program, deduplicated and sorted. *)
val spawn_points : Pf_isa.Program.t -> Spawn_point.t list

(** Spawn points of one procedure's CFG (exposed for tests/examples). *)
val of_proc : Pf_isa.Cfg_build.t -> Spawn_point.t list
