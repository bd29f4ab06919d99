(** Modelled per-task load CAM for memory-dependence speculation
    (enabled by {!Config.t.mem_tracker}; see docs/ENGINE.md).

    The engine records speculative cross-task loads at issue
    ({!record_load}) and probes younger tasks when an older task
    retires a store ({!probe}): a hit is a cross-task
    read-before-write violation — the younger task consumed the
    location before the write committed — and the engine squashes it,
    charging the recovery to the [mem_violation] CPI reason and
    training {!Pf_predict.Store_sets} with the recorded load PC so the
    offender synchronises next time.

    Capacity is finite and direct-mapped at 8-byte-word granularity; a
    slot overwritten with a different address becomes {e imprecise}
    and matches any probe that maps to it, the way a real CAM loses
    disambiguation ability under pressure. No allocation happens after
    {!create}. *)

type t

(** [create ~max_tasks ~entries] — one CAM of [entries] slots (rounded
    up to a power of two) per task context.
    @raise Invalid_argument if either argument is non-positive. *)
val create : max_tasks:int -> entries:int -> t

(** Record a speculative load by task context [slot]. *)
val record_load : t -> slot:int -> addr:int -> pc:int -> unit

(** Probe task context [slot] with a retiring store's address. Returns
    the recorded load PC on a violation, [-1] otherwise. *)
val probe : t -> slot:int -> addr:int -> int

(** Clear a task context's CAM (task end or squash). *)
val reset_slot : t -> int -> unit

(** Live entries in a task context's CAM. *)
val live : t -> slot:int -> int

(** Recount of occupied entries from storage; the engine's
    [Self_checked] mode asserts [live = recount] and that freed contexts
    hold zero. *)
val recount : t -> slot:int -> int
