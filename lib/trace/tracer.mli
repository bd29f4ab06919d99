(** A captured execution window (Section 3.2 of the paper: fast-forward
    through initialisation, then simulate a fixed number of
    instructions), held as the columns the timing engine's cycle loop
    reads: one array per field, indexed by window position.

    Capture writes the dynamic columns straight from the machine's
    events, and each pc's static columns (kind, latency, [$sp] flags,
    backward) from the program, computed once per instruction slot.
    {!Depinfo.compute} then fills the producer columns in place. From
    there on nothing in the window is ever mutated: a sweep simulates
    one window under many policies and machine configurations, on
    several domains at once, and every simulation reads these arrays.
    Per-run mutable state (pipeline state bytes, effective source
    copies, completion cycles) lives inside [Engine.simulate]. See
    docs/ENGINE.md for the sharing contract. *)

type t = private {
  program : Pf_isa.Program.t;  (** the program the window ran *)
  fast_forwarded : int;  (** instructions skipped before the window *)
  n : int;  (** window length *)
  pc : int array;
  next_pc : int array;
  taken : bool array;
  addr : int array;  (** effective address, -1 for non-memory ops *)
  kind : int array;  (** {!Pf_isa.Instr.kind} *)
  lat : int array;
      (** fixed execution latency (loads: replaced by the cache model
          at issue) *)
  src1 : int array;  (** producer index, -1 = none; from {!Depinfo} *)
  src2 : int array;
  src1_sp : Bytes.t;  (** ['\001'] when the source register is [$sp] *)
  src2_sp : Bytes.t;
  memsrc : int array;  (** producing store index, -1 = none *)
  backward : Bytes.t;
      (** ['\001'] for a conditional branch whose static target is
          behind its own pc (the DMT loop heuristic) *)
}

(** [capture machine ~fast_forward ~window] skips [fast_forward]
    instructions, then records up to [window] instructions (fewer if the
    program halts). The producer columns are left at -1; run
    {!Depinfo.compute} next. *)
val capture : Pf_isa.Machine.t -> fast_forward:int -> window:int -> t

(** [capture_window machine ~window ~fast_forwarded] records up to
    [window] instructions from the machine's {e current} state — no
    skipping — stamping the given fast-forward count on the result.
    This is the entry point for callers that position the machine
    themselves. *)
val capture_window :
  Pf_isa.Machine.t -> window:int -> fast_forwarded:int -> t

(** [create program ~fast_forwarded n] is an [n]-instruction window of
    [program] to be filled through {!filler}, every producer column
    at -1. *)
val create : Pf_isa.Program.t -> fast_forwarded:int -> int -> t

(** [filler t] is [fill i ~pc ~next_pc ~taken ~addr], which writes
    instruction [i]'s dynamic columns and its pc's static columns; one
    filler computes each instruction slot's static columns once.
    Capture and the trace-store decoder both fill windows through it.
    @raise Invalid_argument if [pc] is not an instruction of
    [t.program]. *)
val filler :
  t -> int -> pc:int -> next_pc:int -> taken:bool -> addr:int -> unit

val length : t -> int
