(** Natural loops.

    A back edge is an edge [(latch, header)] whose target dominates its
    source. The natural loop of a header is the union of the bodies
    induced by all back edges targeting it. Loops are organised into a
    nesting forest by body inclusion. *)

type loop = {
  header : int;
  body : int list;          (** sorted; includes header and latches *)
  latches : int list;       (** sources of back edges to [header] *)
  exit_edges : (int * int) list; (** edges leaving the loop body *)
  depth : int;              (** 1 = outermost *)
  parent : int option;      (** header of the enclosing loop, if any *)
}

type t

(** [detect g dom] where [dom] is [Dominance.dominators g]. *)
val detect : Cfg.t -> Dominance.t -> t

(** All loops, outermost first (by ascending depth then header). *)
val loops : t -> loop list

(** The innermost loop containing block [b], if any. *)
val innermost : t -> int -> loop option

(** The loop headed by block [h], if [h] is a loop header. *)
val headed_by : t -> int -> loop option

(** Loop-nesting depth of block [b]; 0 when outside all loops. *)
val depth_of : t -> int -> int

(** [in_loop t l b] tests membership of [b] in [l]'s body. *)
val in_loop : loop -> int -> bool
