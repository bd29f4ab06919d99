(** Dominator and postdominator trees.

    Both are computed with the Cooper–Harvey–Kennedy iterative algorithm
    ("A Simple, Fast Dominance Algorithm"). The postdominator tree is the
    dominator tree of the reversed graph; a node [d] postdominates [i]
    when every path from [i] to the exit passes through [d]. The parent of
    a node in the postdominator tree is its immediate postdominator —
    exactly the spawn-point notion of the paper (Section 2.1). *)

type t

(** Dominator tree rooted at the entry block. Unreachable blocks have no
    parent and are reported as dominated by nothing. *)
val dominators : Cfg.t -> t

(** Postdominator tree rooted at the exit block. *)
val postdominators : Cfg.t -> t

(** Root of the tree (entry for dominators, exit for postdominators). *)
val root : t -> int

(** [parent t b] is the immediate (post)dominator of [b], [None] for the
    root and for blocks not reachable in the relevant direction. *)
val parent : t -> int -> int option

(** Children in the (post)dominator tree. *)
val children : t -> int -> int list

(** [in_tree t b] — is [b] part of the tree (reachable in the relevant
    direction)? *)
val in_tree : t -> int -> bool

(** [is_ancestor t a b] tests whether [a] (post)dominates [b]
    (reflexively: [is_ancestor t b b = true]). O(1) via DFS intervals. *)
val is_ancestor : t -> int -> int -> bool

(** [strictly_dominates t a b] is [is_ancestor t a b && a <> b]. *)
val strictly_dominates : t -> int -> int -> bool

(** Depth of a block below the root; root has depth 0. [None] if the block
    is not in the tree. *)
val depth : t -> int -> int option
