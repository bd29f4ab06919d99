(** Static speculation-safety classification of spawn regions, used by
    the [Adaptive] policy ("Adaptive Flow Director", ROADMAP item 1).

    For every spawn point the filter scans a bounded static window of
    the code the spawned task would execute (its target region) and
    assigns one of three speculation levels:

    - {!Bypass}: the region contains serializing work (divides,
      remainders, indirect jumps) — spawning it costs a task context
      for little parallel progress, so the spawn is suppressed;
    - {!Conservative}: store or conditional-branch density crosses a
      threshold — the region is spawned, but every cross-task load it
      executes is synchronised against older-task stores instead of
      speculated;
    - {!Optimistic}: full memory speculation, backed by the modelled
      violation tracker ({!Pf_uarch.Mem_tracker} when enabled).

    The thresholds come from [Pf_uarch.Config] (passed here as plain
    integers — this library sits below the uarch layer). *)

type level = Bypass | Conservative | Optimistic

type t

(** Classify every spawn point of [spawns] against [program].
    [store_pct] and [branch_pct] are density thresholds in percent;
    [serial_ops] is the serializing-operation count at which a region
    is bypassed. Spawn points sharing an [at_pc] keep the most
    conservative verdict. *)
val of_spawns :
  Pf_isa.Program.t ->
  Spawn_point.t list ->
  store_pct:int ->
  branch_pct:int ->
  serial_ops:int ->
  t

(** The {!level} of the spawn point fetched at [at_pc] as a dense code:
    Bypass 0, Conservative 1, Optimistic 2; Optimistic for PCs the
    filter never classified (dynamic candidates). *)
val code : t -> at_pc:int -> int
