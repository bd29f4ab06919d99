(** The memory hierarchy of Figure 8: split 8 KB L1I / 16 KB L1D backed
    by a shared 512 KB L2 and main memory. Latencies are the paper's:
    L1 hit costs the pipeline nothing extra, an L1 miss adds 10 cycles,
    an L2 miss adds 100 more. *)

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

(** Figure 8 values. *)
val default_params : params

val create : ?params:params -> unit -> t

(** Latency in cycles of an instruction fetch at [pc]. 0 = no stall. *)
val fetch_latency : t -> int -> int

(** Latency in cycles of a data access at [addr] (loads and stores). *)
val data_latency : t -> int -> int

val l1i_misses : t -> int
val l1d_misses : t -> int
val l2_misses : t -> int
