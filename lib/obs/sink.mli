(** The engine-facing event sink: a flat record of hooks.

    [Pf_uarch.Engine] calls these at retire, task spawn/reclaim and
    squash, plus once per cycle per task slot with a cycle-accounting
    {e reason} code. A sink is just a record of closures; the provided
    implementations ({!Cpi_stack}, {!Chrome_trace}) build one with
    [{ Sink.null with on_... }] so that hooks they do not care about
    stay free.

    {2 The zero-overhead-when-off contract}

    {!null} is a distinguished record of no-ops. The engine tests
    [is_null] {e once} per simulation and keeps the result in an
    immutable [bool]; every hook site is guarded by that flag, so a
    simulation without a sink pays one boolean test per site and never
    enters the per-slot classification pass. The golden parity suite
    ([test/test_golden.ml]) plus [test/test_obs.ml] prove the stronger
    property: metrics are byte-identical with a sink attached and
    detached — observability never feeds back into timing.

    All hook arguments are plain integers so this library needs nothing
    from the engine. [slot] is a task {e context} index in
    [0 .. max_tasks-1]: stable for the lifetime of one task, reused
    after the task retires (tracks in the Chrome trace, rows in the CPI
    stack). [index] is the instruction's index in the simulated window;
    [cycle] is the engine clock. *)

(** {1 Slot-cycle reason codes}

    Every (cycle, slot) pair is attributed to exactly one of these, so
    per slot the reason counts sum to the run's total cycles. *)

val r_base : int
(** Doing or feeding useful work: fetching, dispatching, executing
    non-memory instructions, or waiting on an in-task dependence. *)

val r_icache : int
(** Frontend stalled on an I-cache miss. *)

val r_branch_mispredict : int
(** Fetch blocked on an unresolved mispredict (conditional, indirect or
    return). *)

val r_divert_wait : int
(** Oldest outstanding work parked in the divert queue behind an
    earlier task. *)

val r_memory : int
(** Oldest outstanding work is an issued load waiting on the data
    hierarchy. *)

val r_squash_recovery : int
(** Refilling after a dependence-violation squash. *)

val r_spawn_overhead : int
(** The cycles a just-spawned task waits before its first fetch. *)

val r_idle : int
(** No live task in the slot, or the task has fetched and completed its
    whole region and waits to become oldest. *)

val r_mem_violation : int
(** Refilling after a cross-task memory-dependence violation detected
    by the modelled load/store tracker (an [Adaptive]-policy squash;
    control-dependence squashes stay on {!r_squash_recovery}). *)

val n_reasons : int
(** Number of reason codes; valid codes are [0 .. n_reasons-1]. *)

val reason_name : int -> string
(** Short stable label ("base", "icache", ...).
    @raise Invalid_argument on an out-of-range code. *)

(** {1 The hook record} *)

type t = {
  on_retire : cycle:int -> slot:int -> index:int -> unit;
  on_task_start : cycle:int -> slot:int -> task:int -> parent_slot:int ->
    at_pc:int -> unit;
      (** a task began occupying [slot]. The initial task reports
          [parent_slot = -1] and [at_pc = -1]; spawned tasks report the
          spawning slot and the spawn point's PC. *)
  on_task_end : cycle:int -> slot:int -> task:int -> unit;
      (** the task fully retired and its slot was reclaimed (the final
          task's hook fires on the run's last cycle) *)
  on_squash : cycle:int -> slot:int -> tasks:int -> instrs:int -> unit;
      (** a dependence violation squashed [tasks] tasks (the victim in
          [slot] and everything younger), discarding [instrs] fetched
          instructions *)
  on_slot_cycle : cycle:int -> slot:int -> reason:int -> unit;
      (** cycle accounting: fired once per cycle for {e every} slot of
          the machine, live or not, with one of the [r_*] codes *)
}

val null : t
(** The no-op sink. Physically distinguished: attach any other record
    (even one built from [{ null with ... }]) and the engine observes. *)

val is_null : t -> bool
(** Physical equality with {!null}. *)

val tee : t -> t -> t
(** [tee a b] forwards every event to [a] then [b]. *)
