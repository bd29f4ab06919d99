(** Campaign driver: generate, check, shrink, persist.

    A campaign runs [count] programs derived from one [seed] — each
    program [index] gets an independent sub-seed via a splitmix-style
    hash, so [(seed, index)] identifies a program without replaying
    anything before it. The oracles self-check the engine's run of
    every policy ({!Pf_uarch.Engine.mode}), in campaigns and replays
    alike.

    Mini findings are minimised with {!Shrink} (preserving the oracle
    name) before being written to the corpus; Asm findings store their
    disassembly and replay by regeneration (see {!Repro}). *)

type finding = {
  repro : Repro.t;
  path : string option; (** where it was saved, if [corpus_dir] was given *)
}

type summary = {
  executed : int; (** programs actually checked (≤ [count] under a budget) *)
  findings : finding list;
}

(** [sub_seed ~seed ~index] — the positive generator seed of program
    [index] of campaign [seed]. *)
val sub_seed : seed:int -> index:int -> int

(** [run ~gen ~seed ~count ()] checks [count] generated programs.
    [time_budget] (seconds, default none) stops the campaign early;
    [mini_loopnest] (default false) makes the Mini frontend thread
    loop-nest-shaped fragments with cross-iteration carries through its
    programs (see {!Gen_mini.generate}); [corpus_dir] persists findings;
    [shrink_budget] caps shrink trials per finding (default 500);
    [progress] is called after each program with its index. *)
val run :
  gen:Repro.gen_kind ->
  seed:int ->
  count:int ->
  ?policies:Pf_core.Policy.t list ->
  ?mini_loopnest:bool ->
  ?corpus_dir:string ->
  ?time_budget:float ->
  ?shrink_budget:int ->
  ?progress:(int -> unit) ->
  unit ->
  summary

(** [replay path] re-runs the oracle on a saved repro: Mini repros parse
    the stored (shrunk) program text, Asm repros regenerate from
    [(seed, index)]. Returns the repro and the fresh outcome. *)
val replay :
  ?policies:Pf_core.Policy.t list ->
  string ->
  (Repro.t * Oracle.outcome, string) result
