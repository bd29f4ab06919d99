(** General-purpose registers of the MIPS-like 64-bit ISA.

    Registers are plain integers 0..31 with the standard MIPS software
    conventions. Register 0 ([zero]) always reads as 0. *)

type t = int

val count : int

val zero : t
val at : t

(** Return-value registers. *)
val v0 : t
val v1 : t

(** Argument registers a0..a3. *)
val a0 : t
val a1 : t
val a2 : t
val a3 : t

(** Caller-saved temporaries t0..t9. *)
val t0 : t
val t1 : t
val t2 : t
val t3 : t
val t4 : t
val t5 : t
val t6 : t
val t7 : t
val t8 : t
val t9 : t

(** Callee-saved s0..s7. *)
val s0 : t
val s1 : t
val s2 : t
val s3 : t
val s4 : t
val s5 : t
val s6 : t
val s7 : t

val sp : t
val fp : t

(** Link register written by calls. *)
val ra : t

(** Conventional MIPS name, e.g. [name 29 = "$sp"]. *)
val name : t -> string

(** Inverse of {!name}: [of_name "$sp" = Some 29]. *)
val of_name : string -> t option

val pp : Format.formatter -> t -> unit
