(** Memory-dependence predictor in the synchronizing-store-sets style
    the PolyFlow backend uses for inter-task loads (Section 3.1; Stone
    et al.).

    The first time a load in a young task reads data produced by a store
    in an older task that has not yet executed, the machine squashes and
    calls {!train_violation}. From then on, {!predict_sync} tells the
    rename stage to divert that load until its producer has executed.
    Confidence decays when synchronisation keeps being applied to loads
    that no longer conflict ({!train_no_conflict}). *)

type t

val create : ?sync_threshold:int -> unit -> t

(** Should the load at [load_pc] be synchronised against older-task
    stores? *)
val predict_sync : t -> load_pc:int -> bool

(** A violation was detected between [load_pc] and [store_pc]. *)
val train_violation : t -> load_pc:int -> store_pc:int -> unit

(** The synchronised load turned out not to conflict this time. *)
val train_no_conflict : t -> load_pc:int -> unit

(** Number of distinct load PCs currently predicted to synchronise. *)
val synced_loads : t -> int
