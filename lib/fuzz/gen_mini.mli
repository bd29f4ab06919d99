(** Seeded random Mini programs for differential fuzzing.

    Every generated program terminates by construction — loops run a
    dedicated fresh counter for a bounded iteration count, the recursive
    helper decrements a clamped argument — so the interpreter's fuel and
    the machine's instruction budget are safety nets, not part of the
    contract. Programs exercise nested loops (bounded [While] /
    [Do_while]), [If] hammocks, jump-table [Switch] dispatch, calls
    (including bounded recursion), global scalars, and byte/half/word/
    double loads and stores (signed {e and} unsigned) over a masked
    global array, so every access stays inside the array.

    Generation is a pure function of the seed (it draws from a private
    {!Pf_workloads.Rng}): the same seed always yields the same program,
    which is what makes campaign failures replayable from
    [(seed, index)] alone. *)

(** [generate ~seed ()] is the classic mixed-statement program.
    [~loopnest:true] additionally threads a loop-nest-shaped fragment
    through the program — a bounded inner loop with cross-iteration
    array carries at a random distance 0..4, optionally nested under an
    outer loop, in the image of the {!Pf_workloads.Loopnest} family —
    so campaigns exercise the DOACROSS sync path. The default is the
    classic generator, byte-identical to what it produced before the
    flag existed. *)
val generate : ?loopnest:bool -> seed:int -> unit -> Pf_mini.Ast.program
