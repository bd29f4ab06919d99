(** Set-associative cache with true-LRU replacement (tag state only; no
    data storage — the timing models only need hit/miss). *)

type t

(** [create ~size_bytes ~assoc ~line_bytes ()]. Sizes must make the set
    count a power of two.
    @raise Invalid_argument otherwise. *)
val create : size_bytes:int -> assoc:int -> line_bytes:int -> unit -> t

(** [access t addr] touches the line containing [addr]; returns [true]
    on hit. Misses fill the line (evicting the LRU way). *)
val access : t -> int -> bool

(** [probe t addr] — hit test without changing any state. *)
val probe : t -> int -> bool

(** Misses since [create]; probes are not counted. *)
val misses : t -> int
