(** Dynamic reconvergence predictor (Collins, Tullsen and Wang, MICRO
    2004), the mechanism Section 2.4 of the paper uses to approximate
    immediate postdominators at run time.

    The predictor watches the retirement stream. When a conditional
    branch retires it opens a monitor that scans subsequent retired
    instructions {e at the same call depth} (instructions inside called
    functions are skipped, returns past the branch close the monitor).
    Each branch keeps a candidate reconvergence PC [R], seeded with the
    first PC above the branch address and pushed monotonically upward:

    - if the monitored path first reaches a PC equal to [R], the
      candidate is confirmed (confidence rises);
    - if the first PC at-or-above [R] is higher than [R], the candidate
      moves up to it (the true join must lie on every path);
    - if the window expires or control returns past the branch first,
      the instance is inconclusive.

    For the dominant "reconvergence below the branch" category this
    converges to the lowest address executed on every path — the join of
    hammocks and the fall-through of bottom-tested loops. Warm-up
    (instances before confidence is reached) and never-learned branches
    are the two loss sources the paper observes in Figure 12. *)

type t

(** [create ()] — a monitor examines 256 same-depth instructions before
    giving up, a branch needs 2 confirmations before it is predicted, and
    at most 64 monitors are open at once. *)
val create : unit -> t

(** Feed one retired instruction, in program order, by its
    {!Pf_isa.Instr.kind} code. *)
val retire : t -> pc:int -> kind:int -> unit

(** Predicted reconvergence PC of the conditional branch at [branch_pc];
    [None] while unlearned or not yet confident. *)
val predict : t -> branch_pc:int -> int option

(** Number of branches currently predicted with confidence. *)
val learned_branches : t -> int

(** Total branches ever observed. *)
val observed_branches : t -> int
