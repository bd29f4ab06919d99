(** Differential oracles: the cross-checks a fuzzed program must pass.

    Three semantic layers are compared against each other:

    - the Mini reference interpreter ({!Pf_mini.Interp}) vs the compiled
      program on the architectural machine ({!Pf_isa.Machine}) — final
      values of every user global, including each word of the array;
    - the architectural machine vs the speculative engine
      ({!Pf_uarch.Run.simulate}) — the engine must retire exactly the
      captured window, in order, under {e every} policy class;
    - the engine vs itself — metrics and named counters must be
      deterministic across repeated runs, with and without an attached
      sink and the engine's self-check ({!Pf_uarch.Engine.mode}), and
      across domains ([--jobs 1] vs [--jobs N]); and no run may beat
      the machine's fetch or retire width.

    Plus the pf_obs invariants: every CPI-stack slot row sums to the
    run's cycles, task-slot starts balance ends, and the counter
    registry agrees with the [Metrics.t] record.

    A failure names the oracle that tripped ([oracle]) and carries a
    human-readable [detail]. The shrinker preserves the oracle name, so
    a minimised repro still fails for the original reason. *)

type failure = { oracle : string; detail : string }
type outcome = Pass | Fail of failure

(** One representative of every {!Pf_core.Policy.t} class: [No_spawn],
    [Postdoms], [Postdoms_minus], [Categories], [Rec_pred], [Dmt],
    [Adaptive], [Doacross]. *)
val all_policies : Pf_core.Policy.t list

(** [check_mini p] compiles [p], interprets it, runs the compiled code
    on the machine, compares final global state, then runs the engine
    checks on a captured window (capped at [window], default 12000).
    [policies] defaults to {!all_policies}. *)
val check_mini :
  ?policies:Pf_core.Policy.t list ->
  ?window:int ->
  Pf_mini.Ast.program ->
  outcome

(** [check_asm p] runs the machine-level determinism and
    trace-transparency checks on [p] (final scratch-region contents
    after a plain run vs a run interrupted by {!Pf_trace.Tracer.capture}),
    then the same engine checks as {!check_mini}. *)
val check_asm :
  ?policies:Pf_core.Policy.t list -> ?window:int -> Pf_isa.Program.t -> outcome
