(** Measurements produced by one simulation run. *)

type t = {
  instructions : int;
  cycles : int;
  branch_mispredicts : int;
  indirect_mispredicts : int;
  return_mispredicts : int;
  spawns : (Pf_core.Spawn_point.category * int) list;
      (** dynamic spawn counts by category ([Other] holds the
          reconvergence-predictor spawns of the dynamic policy) *)
  squashes : int;          (** memory-dependence violations *)
  squashed_instrs : int;   (** instructions refetched because of them *)
  diverted : int;          (** instructions that passed through the divert queue *)
  tasks_spawned : int;
  max_live_tasks : int;
  l1i_misses : int;
  l1d_misses : int;
  l2_misses : int;
  (* retirement-stall attribution: cycles in which nothing could retire,
     classified by the state of the oldest unretired instruction *)
  stall_frontend : int; (** not yet dispatched (fetch/mispredict/I-cache) *)
  stall_divert : int;   (** parked in the divert queue *)
  stall_sched : int;    (** in the scheduler waiting for operands *)
  stall_exec : int;     (** issued, waiting for its latency (loads mostly) *)
}

(** The names of the 17 counts, the [int] fields, in record order.
    This is the only list of them: the JSON and CSV codecs, the
    run-cache entry and the fuzz oracle's counter check all walk it
    through {!counts} and {!of_counts}, so a new count needs no codec
    change. *)
val count_names : string list

(** The counts of [t], in {!count_names} order. *)
val counts : t -> int array

(** [of_counts a spawns] is the record whose counts are [a], in
    {!count_names} order, and whose spawn list is [spawns]. The inverse
    of {!counts}.
    @raise Invalid_argument unless [a] holds exactly one value per name. *)
val of_counts : int array -> (Pf_core.Spawn_point.category * int) list -> t

(** Total retirement-stall cycles: the sum of the four attribution
    buckets above. *)
val stall_cycles : t -> int

(** Retired instructions per cycle; [0.] on an empty run. Render with
    [%.3f] — every table in the tree uses that precision. *)
val ipc : t -> float

(** [speedup_pct ~baseline t] — percent speedup of [t] over [baseline]
    (Figures 9, 10, 12 report exactly this). *)
val speedup_pct : baseline:t -> t -> float

val total_spawns : t -> int

(** [pretty_int 12345678] is ["12,345,678"] — thousands grouping for
    counters, so table columns stay readable past 10M instructions. *)
val pretty_int : int -> string

(** Full human-readable dump; counters are right-aligned in 15 columns
    with thousands grouping, so values up to 10{^14} keep the layout. *)
val pp : Format.formatter -> t -> unit
