(** Array-backed instruction-index queues for the engine's cycle loop.

    Both the scheduler and the divert queue hold small sets of
    instruction indices that are visited in a fixed order every cycle.
    The previous representation (OCaml lists, re-sorted with [List.sort]
    on every issue and rebuilt with [List.filter] on every squash) made
    the per-cycle cost proportional to allocation churn as well as
    occupancy; these queues keep their order by construction and reuse
    one backing array.

    A queue stores raw [int] indices. Order is determined by how
    elements are inserted: {!add_sorted} inserts at the index's sorted
    position (ascending program order — the scheduler's oldest-first
    issue priority); {!push} appends and {!insert} places an element by
    a caller's order (the divert queue's dispatch order, where [push]
    appends the newest element). A single queue keeps one order.

    Not thread-safe; every queue is private to one engine run. *)

type t

(** [create ~capacity ()] — [capacity] is a hint; queues grow on
    demand. *)
val create : ?capacity:int -> unit -> t

val length : t -> int

(** Append at the tail (FIFO order). O(1) amortized. *)
val push : t -> int -> unit

(** Insert keeping the queue sorted ascending. O(length) worst case,
    O(log length) when the element belongs at the tail (the common case:
    dispatch walks tasks in program order). *)
val add_sorted : t -> int -> unit

(** [insert q ~before i] inserts [i] ahead of the first element [e]
    with [before i e], keeping a queue sorted by [before] sorted. *)
val insert : t -> before:(int -> int -> bool) -> int -> unit

(** [sweep q f] visits every element in queue order and keeps exactly
    those for which [f] returns [true], compacting in place. [f] may
    modify other queues (the engine's divert drain moves entries into
    the scheduler this way) and may insert into [q] itself: the three
    insertions then place the element among those not yet visited, so
    the sweep visits it later, and it must belong after the element
    being visited (the divert drain wakes a released entry's chain this
    way). An exception escaping [f] leaves [q] unusable. *)
val sweep : t -> (int -> bool) -> unit

(** [iter q f] applies [f] to every element in queue order. *)
val iter : t -> (int -> unit) -> unit

(** Remove all elements. *)
val clear : t -> unit
