(** gshare conditional-branch predictor (Figure 8: 16 Kbit table,
    8 bits of global history).

    The table holds 2^13 = 8192 2-bit saturating counters (16 Kbit),
    indexed by the exclusive-or of the branch PC and an 8-bit global
    history. Both sizes are the paper's and fixed.

    SMT-style use: the counter table is shared but each task keeps its
    own global-history register (a shared register would be scrambled by
    interleaved fetch), so every call names the history it runs under. *)

type t

(** A table of weakly-not-taken counters. *)
val create : unit -> t

(** Empty history value for a new task. *)
val initial_history : int

(** Predicted direction for the branch at [pc] under [history]. *)
val predict_with : t -> history:int -> pc:int -> bool

(** Trains the indexed counter only; does not touch any history. *)
val update_with : t -> history:int -> pc:int -> taken:bool -> unit

(** [shift ~history ~taken] is the task's next history value. *)
val shift : history:int -> taken:bool -> int
