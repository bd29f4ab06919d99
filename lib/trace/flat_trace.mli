(** Policy-independent flattening of a captured window into structure-of-
    arrays form for the timing engine's cycle loop.

    A sweep simulates the same window under many policies and machine
    configurations; everything in this record depends only on the trace,
    so it is computed once per (workload, window) pair — by
    {!Pf_uarch.Run.prepare} [(lib/uarch/run.ml)] — and shared read-only by
    every simulation, including simulations running concurrently on other
    domains. Nothing in here may ever be mutated after {!of_trace}
    returns; per-run mutable state (pipeline state bytes, effective
    source copies, completion cycles) lives inside [Engine.simulate].
    See docs/ENGINE.md for the full sharing contract. *)

type t = private {
  n : int;              (** window length *)
  pc : int array;
  next_pc : int array;
  taken : bool array;
  addr : int array;     (** effective address, -1 for non-memory ops *)
  kind : int array;     (** one of the [k_*] codes below *)
  lat : int array;      (** fixed execution latency (loads: replaced by
                            the cache model at issue) *)
  src1 : int array;     (** producer index, -1 = none; from {!Depinfo} *)
  src2 : int array;
  src1_sp : Bytes.t;    (** '\001' when the source register is $sp *)
  src2_sp : Bytes.t;
  memsrc : int array;   (** producing store index, -1 = none *)
  backward : Bytes.t;   (** '\001' for a conditional branch whose static
                            target is behind its own PC (DMT loop
                            heuristic) *)
}

(** Instruction kind codes stored in {!t.kind}. *)

val k_load : int
val k_store : int
val k_branch : int
val k_jump : int

(** jal *)
val k_call : int

(** jr $ra *)
val k_return : int

(** jr r *)
val k_ind_jump : int

(** jalr *)
val k_ind_call : int

(** [of_trace trace] flattens a captured window. The dependence fields
    ([src1]/[src2]/[memsrc]) are copied from the trace, so
    {!Depinfo.compute} must already have run on it.
    @raise Invalid_argument on an empty trace. *)
val of_trace : Tracer.t -> t
