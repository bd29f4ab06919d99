(** Last-target predictor for indirect jumps and indirect calls
    (a BTB-style table keyed by jump PC). *)

type t

val create : unit -> t

(** Predicted target of the indirect jump at [pc]; [-1] before any
    training (an int, not an option, so a prediction allocates
    nothing). *)
val predict : t -> pc:int -> int

val update : t -> pc:int -> target:int -> unit
