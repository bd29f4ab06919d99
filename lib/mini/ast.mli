(** Abstract syntax of Mini, the small structured language the workloads
    are written in. {!Compile} lowers it to [pf_isa] programs with the
    loop/branch shapes classic compilers produce (bottom-tested loops,
    fall-through-then-else hammocks, jump-table switches), so the CFG
    analyses see realistic code. *)

type width = Pf_isa.Instr.width

type rel = Req | Rne | Rlt | Rle | Rgt | Rge

type expr =
  | Const of int64
  | Var of string              (** local variable or 8-byte global scalar *)
  | Addr of string             (** address of a global *)
  | Load of width * bool * expr  (** [Load (w, signed, address)] *)
  | Binop of Pf_isa.Instr.alu_op * expr * expr
  | Cmp of rel * expr * expr   (** 1 when the relation holds, else 0 *)
  | Call of string * expr list
      (** only allowed as the direct right-hand side of [Let]/[Set] *)

type stmt =
  | Let of string * expr       (** declare a local and initialise it *)
  | Set of string * expr       (** assign a local or global scalar *)
  | Store of width * expr * expr  (** [mem_w[e1] <- e2] *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list  (** guard + bottom-tested loop *)
  | Do_while of stmt list * expr (** bottom-tested loop, body runs once *)
  | Switch of expr * (int * stmt list) list * stmt list
      (** jump-table dispatch on a small non-negative selector;
          each case falls out of the switch (no fall-through chaining);
          the final list is the default case *)
  | Call_stmt of string * expr list
  | Return of expr option
  | Break                      (** leave the innermost loop *)

type func = {
  name : string;
  params : string list;        (** at most 4 *)
  body : stmt list;
}

type program = {
  funcs : func list;           (** first function is not special; entry is
                                   chosen at compile time *)
  globals : (string * int) list; (** name, size in bytes (8-byte aligned) *)
}

(** {1 Convenience constructors} *)

val i : int -> expr
(** [i n] is [Const (Int64.of_int n)]. *)

val v : string -> expr

val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( %: ) : expr -> expr -> expr
val ( &: ) : expr -> expr -> expr
val ( |: ) : expr -> expr -> expr
val ( ^: ) : expr -> expr -> expr
val ( <<: ) : expr -> expr -> expr
val ( >>: ) : expr -> expr -> expr

val ( ==: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr

(** [ld8 e] / [ld4 e] / [ld1 e]: signed loads of 8/4/1 bytes. *)
val ld8 : expr -> expr

val ld4 : expr -> expr
val ld1 : expr -> expr

(** [st8 addr value] etc. *)
val st8 : expr -> expr -> stmt

val st4 : expr -> expr -> stmt
val st1 : expr -> expr -> stmt

(** [idx8 base e] is [base +: (e <<: i 3)] — address of element [e] of an
    8-byte-element array at [base]. *)
val idx8 : expr -> expr -> expr

(** [for_ var ~init ~cond ~step body] expands to the canonical
    guard + bottom-tested loop using [Let]/[While]-free primitives:
    [Let (var, init); While (cond, body @ [Set (var, step)])]. *)
val for_ : string -> init:expr -> cond:expr -> step:expr -> stmt list -> stmt list
