(** The paper's evaluation (Section 4) as data: the grid of runs that
    regenerates it, and every table computed from a report document of
    those runs.

    [bench/main.exe] sweeps {!specs} (or {!loopnest_specs}) and prints
    the document through {!print}; [polyflow_sim report] prints a saved
    document through the same {!print}, so the two agree byte for byte.
    Four of the bench's sections are not here, because a document does
    not hold what they read: Figures 5 and 8 describe the build (the
    classified programs and the pipeline configuration), and the limit
    study and the CPI stacks re-read prepared windows. *)

(** The paper grid over the 12 SPEC-shaped kernels: every policy of
    Figures 9-12 and of the related-work comparison, the task-count,
    ablation and split-spawning variants of postdoms, then the
    window-sensitivity cells of crafty, mcf, perlbmk and twolf. A
    [window] pins every cell's window and drops the window-sensitivity
    cells, whose point is to vary it. *)
val specs : ?window:int -> unit -> Sweep.spec list

(** The loop-nest figure's cells: the superscalar, postdoms, doacross
    and adaptive over each of [nests] (default: the carry-span sweep
    {!Pf_workloads.Loopnest.sweep_names}, then the registered stride and
    depth variants). *)
val loopnest_specs :
  ?window:int -> ?nests:string list -> unit -> Sweep.spec list

(** Prints each table whose runs [doc] holds, in this order: Figures
    9-12 (with the two headline lines), the related-work comparison,
    task scaling, stall sources, design ablations, split spawning,
    window sensitivity, and the loop nests' dependence-distance and
    variant tables. A table's rows are the document's workloads among
    those it covers (the SPEC kernels, the window-sensitivity four, the
    carry-span sweep or the variants); it prints when it has a row and
    every row has every run it reads. Each table starts with a blank
    line and a banner holding its title; an empty document prints
    nothing. Flushes [ppf]. *)
val print : Format.formatter -> Sweep.t -> unit
