(** The memory hierarchy of Figure 8, fixed at the paper's values: an
    8 KB 2-way L1I with 128-byte lines and a 16 KB 4-way L1D with 64-byte
    lines, backed by a shared 512 KB 8-way L2 with 128-byte lines and
    main memory. An L1 hit costs a fetch nothing extra and a data access 2
    cycles, an L1 miss adds 10 cycles, an L2 miss adds 100 more. *)

type t

type params = {
  l1i_size : int;
  l1i_assoc : int;
  l1i_line : int;
  l1d_size : int;
  l1d_assoc : int;
  l1d_line : int;
  l2_size : int;
  l2_assoc : int;
  l2_line : int;
  l1_miss_penalty : int;
  l2_miss_penalty : int;
  l1d_hit_latency : int; (** load-to-use latency on an L1D hit *)
}

(** Figure 8 values, the only geometry and latencies a hierarchy has. *)
val default_params : params

(** Cold caches with the {!default_params} geometry. *)
val create : unit -> t

(** Latency in cycles of an instruction fetch at [pc]. 0 = no stall. *)
val fetch_latency : t -> int -> int

(** Latency in cycles of a data access at [addr] (loads and stores). *)
val data_latency : t -> int -> int

val l1i_misses : t -> int
val l1d_misses : t -> int
val l2_misses : t -> int
