(** The spawn hint cache of the Task Spawn Unit (Figure 7): associates
    fetch PCs with spawn points. As in the paper (Section 3.2), capacity
    and conflict misses are not modelled — every installed hint is always
    visible. *)

type t

val of_spawns : Spawn_point.t list -> t

(** All hints installed at [pc] (usually zero or one). *)
val find : t -> pc:int -> Spawn_point.t list

val size : t -> int
