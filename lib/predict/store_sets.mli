(** Memory-dependence predictor in the synchronizing-store-sets style
    the PolyFlow backend uses for inter-task loads (Section 3.1; Stone
    et al.).

    The first time a load in a young task reads data produced by a store
    in an older task that has not yet executed, the machine squashes and
    calls {!train_violation}. From then on, {!predict_sync} tells the
    rename stage to divert that load until its producer has executed.
    Confidence never decays: as in classic store sets, a learned load
    stays synchronised (a decay would oscillate between speculating and
    re-squashing on steady conflicts). *)

type t

(** [sync_threshold] (default 1) is the confidence at which a trained
    load is synchronised; each violation adds 2, saturating at 8. *)
val create : ?sync_threshold:int -> unit -> t

(** Should the load at [load_pc] be synchronised against older-task
    stores? *)
val predict_sync : t -> load_pc:int -> bool

(** The load at [load_pc] read data an older task had not yet stored. *)
val train_violation : t -> load_pc:int -> unit
