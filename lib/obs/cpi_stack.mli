(** Cycle accounting per task slot — the CPI-stack sink.

    Consumes {!Sink.on_slot_cycle} events: every cycle, every task slot
    of the machine is attributed to exactly one {!Sink} reason code, so
    when the run finishes each slot's counts sum to the run's total
    cycles (asserted by [test/test_obs.ml] and the CLI). Rendered as a
    table this is the paper's argument in numbers: where the superscalar
    burns slot-cycles on branch-mispredict repair, PolyFlow confines the
    penalty to one slot while the control-equivalent slots keep doing
    base work (Section 3); the reconvergence predictor's gap vs compiler
    postdominators shows up as extra idle and spawn-overhead cycles
    (Section 4.4). *)

type t

val create : unit -> t

(** The hook record to attach ([Run.simulate ~sink:(Cpi_stack.sink c)]).
    Only [on_slot_cycle] is implemented; all other hooks stay no-ops. *)
val sink : t -> Sink.t

(** Number of slot rows observed (1 + highest slot index seen). *)
val slots : t -> int

(** [row t s] — a copy of slot [s]'s per-reason cycle counts, indexed
    by the {!Sink} reason codes.
    @raise Invalid_argument if [s] is out of range. *)
val row : t -> int -> int array

(** Sum of one slot's row = cycles the machine ran while this slot
    existed (equal across slots, and equal to [Metrics.cycles]). *)
val slot_total : t -> int -> int

(** Grand total over all slots ([slots * cycles]). *)
val total : t -> int

(** Aggregate over slots: total cycles per reason code. *)
val aggregate : t -> int array

(** Render the per-slot table plus an aggregate percentage row. *)
val pp : Format.formatter -> t -> unit

(** Short column label for a reason code ("base", "br_mp", ...), for
    table headers; {!Sink.reason_name} has the schema names.
    @raise Invalid_argument on an out-of-range code. *)
val short_name : int -> string
