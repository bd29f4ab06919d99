(** Graphviz export for control flow graphs. *)

(** [cfg ?label ppf g] prints [g] in dot syntax; [label] names blocks. *)
val cfg : ?label:(int -> string) -> Format.formatter -> Cfg.t -> unit
