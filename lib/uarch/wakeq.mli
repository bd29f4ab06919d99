(** Wakeup lists: intrusive doubly-linked lists of window indices, the
    engine's sleeping scheduler and divert-queue entries
    (docs/ENGINE.md, "Wakeup lists").

    A table holds [lists] lists over the entries [0 .. entries-1]; each
    entry is on at most one list at a time. {!add} pushes at the front,
    {!pop} takes from the front and {!remove} unlinks an entry from
    whichever list holds it, all in O(1) and without allocating. Links
    are 32-bit cells in [Bytes.t], so a table costs 4 bytes per list
    plus 8 per entry.

    Not thread-safe; every table belongs to one engine run at a time. *)

type t

(** [create ~entries ~lists] — every list empty, every entry unlinked. *)
val create : entries:int -> lists:int -> t

(** Empty every list and unlink every entry. *)
val reset : t -> unit

(** [add t l i] pushes unlinked entry [i] at the front of list [l]. *)
val add : t -> int -> int -> unit

(** [remove t i] unlinks [i] from its list; a no-op when [i] is on no
    list. *)
val remove : t -> int -> unit

(** [pop t l] unlinks and returns the front entry of list [l], or [-1]
    when the list is empty. *)
val pop : t -> int -> int

(** [first t l] is the front entry of list [l], or [-1]. *)
val first : t -> int -> int

(** [next t i] is the entry after linked entry [i] on its list, or
    [-1]. Read it before unlinking or re-linking [i]. *)
val next : t -> int -> int

(** [linked t i] — [i] is on some list. *)
val linked : t -> int -> bool

(** Recheck the link structure: walking every list from its front
    reaches each linked entry exactly once, back links agree with
    forward links, and unlinked entries are on no list.
    @raise Failure naming the first inconsistency. *)
val check : t -> unit
