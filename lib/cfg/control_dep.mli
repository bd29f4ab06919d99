(** Control dependence graph (Ferrante–Ottenstein–Warren).

    A block [x] is control dependent on block [a] if [a] has an outgoing
    edge [(a, b)] such that [x] postdominates [b] but [x] does not strictly
    postdominate [a]. Intuitively, [a]'s branch decides whether [x]
    executes (Section 2.1 of the paper). *)

type t

(** [compute g pdom] where [pdom] is [Dominance.postdominators g]. *)
val compute : Cfg.t -> Dominance.t -> t

(** Blocks control dependent on [a] (deduplicated, ascending). *)
val dependents : t -> int -> int list

(** Blocks that [x] is control dependent on (deduplicated, ascending). *)
val controllers : t -> int -> int list
