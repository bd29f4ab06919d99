(** Replayable repro files for campaign findings.

    A repro records everything needed to re-run one failing case:
    the generator frontend, the campaign [seed] and program [index]
    (which together determine the generated program exactly), the
    oracle that tripped, and the program text — the {e shrunk}
    s-expression for Mini findings (replayed by parsing it), the
    disassembly listing for Asm findings (informational only: the
    textual ISA round-trip drops indirect-target profiles, so Asm
    replays regenerate the program from [(seed, index)]).

    File format (one header per line, then the program):
    {v
    # polyflow_fuzz repro v1
    gen: mini
    seed: 42
    index: 17
    oracle: interp-vs-machine
    detail: global result: interp 5, machine 7
    --- program ---
    (program ...)
    v} *)

type gen_kind = Mini | Asm

type t = {
  gen : gen_kind;
  seed : int;       (** campaign seed *)
  index : int;      (** program index within the campaign *)
  oracle : string;  (** which oracle tripped (see {!Oracle}) *)
  detail : string;
  program_text : string;
}

val gen_name : gen_kind -> string

val to_string : t -> string
val of_string : string -> (t, string) result

(** [save ~dir r] writes [r] to [dir] (creating it if needed) under a
    [mini-s42-i17.repro] style basename and returns the path. *)
val save : dir:string -> t -> string

val load : string -> (t, string) result
