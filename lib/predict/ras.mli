(** Return-address stack. Pushed at calls, popped at returns; a return
    whose predicted target disagrees with the real one (stack overflow
    wrapped around, or underflow) counts as a misprediction. *)

type t

val create : ?depth:int -> unit -> t

(** Record a call whose return address is [return_pc]. *)
val push : t -> int -> unit

(** Predict the target of a return; [-1] when the stack is empty (an
    int, not an option, so a return's prediction allocates nothing). *)
val pop : t -> int

val copy : t -> t
