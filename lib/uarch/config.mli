(** Machine configurations (Figure 8 of the paper).

    Both the superscalar baseline and PolyFlow use the same hardware
    resources; they differ only in task support: the superscalar runs a
    single task and fetches from one context per cycle, PolyFlow runs up
    to 8 tasks and fetches from two per cycle (one taken branch per task
    per cycle in both). *)

type t = {
  width : int;                 (** pipeline width: 8 instrs/cycle *)
  fetch_tasks_per_cycle : int; (** 1 (superscalar) or 2 (PolyFlow) *)
  max_tasks : int;             (** 1 or 8 *)
  rob_entries : int;           (** 512, dynamically shared *)
  scheduler_entries : int;     (** 64, dynamically shared *)
  fus : int;                   (** 8 identical general-purpose units *)
  divert_entries : int;        (** 128, dynamically shared *)
  retire_width : int;
  min_mispredict_penalty : int; (** at least 8 cycles *)
  frontend_depth : int;         (** fetch-to-dispatch latency *)
  fetch_buffer : int;           (** per-task fetched-but-not-dispatched cap *)
  max_spawn_distance : int;     (** Task Spawn Unit: don't spawn further than
                                    this many dynamic instructions ahead *)
  min_task_instrs : int;        (** skip spawns that would create tiny tasks *)
  spawn_latency : int;          (** cycles before a new task may fetch *)
  squash_penalty : int;         (** refetch delay after a dependence violation *)
  ras_depth : int;
  max_cycles_per_instr : int;   (** watchdog for the cycle loop *)
  (* The engine refinements documented in DESIGN.md, each individually
     switchable so the ablation bench can measure its contribution. *)
  biased_fetch : bool;          (** oldest task fetches first (TME-style);
                                    off = pure fewest-in-flight ICount *)
  shared_history : bool;        (** one gshare history register for all
                                    tasks instead of per-task registers *)
  rob_shares : bool;            (** per-task/aggregate young-task ROB caps *)
  divert_chains : bool;         (** dependent chains follow their head into
                                    the divert queue *)
  sp_hint : bool;               (** cross-task stack-pointer dependences are
                                    satisfied at spawn (hint-cache register
                                    dependence information) *)
  feedback : bool;              (** spawn-profitability feedback *)
  split_spawning : bool;
      (** future work from the paper's Section 6: allow any task (not
          just the tail) to spawn by splitting its own region, so nested
          hammocks can all be spawned past. Off by default — the paper's
          PolyFlow gives each thread a single successor. *)
  (* The memory-dependence speculation subsystem (docs/ENGINE.md). All
     defaults reproduce engine-3 timing exactly: the tracker is off and
     the safety thresholds are only consulted by the [Adaptive] policy,
     so every pre-existing policy/config pair is byte-identical. *)
  mem_tracker : bool;
      (** model the per-task load CAM: speculative cross-task loads are
          recorded at issue and checked when an older task's store
          retires; a hit squashes the offending task, charged to the
          [mem_violation] CPI reason, and trains the store-set
          predictor so repeat offenders synchronise instead. *)
  tracker_entries : int;
      (** per-task CAM capacity (rounded up to a power of two). Smaller
          trackers lose address precision and squash on hash
          collisions, as real violation CAMs do. *)
  mem_sync_threshold : int;
      (** store-set confidence at which a load is synchronised instead
          of speculated ({!Pf_predict.Store_sets.create}). *)
  safety_store_pct : int;
      (** safety filter: a spawn region whose static store density
          reaches this percentage is demoted to [Conservative]
          (spawned, but every cross-task load synchronises). *)
  safety_branch_pct : int;
      (** safety filter: conditional-branch density threshold for the
          [Conservative] demotion. *)
  safety_serial_ops : int;
      (** safety filter: number of serializing operations (divides,
          remainders, indirect jumps) in the scanned region at which
          the spawn is bypassed entirely. *)
  doacross_sync_distance : int;
      (** DOACROSS near-carry window: under the [Doacross] policy a
          cross-task load whose producing store lies within this many
          immediately-preceding live tasks is force-synchronised (the
          classic post/wait on near iteration carries); carries from
          further back speculate under the tracker. Only consulted
          when the policy enables the doacross sync, so the default
          changes no existing timing. *)
}

(** The 8-wide superscalar baseline. *)
val superscalar : t

(** PolyFlow: the superscalar plus 8 task contexts. *)
val polyflow : t

(** The machine a policy runs on when no config is given, the
    [machine] column of its {!Pf_core.Policy.descriptor}: {!superscalar}
    for one task, else {!polyflow} with [mem_tracker] on or off
    ([Adaptive] and [Doacross] turn it on). *)
val for_policy : Pf_core.Policy.t -> t

(** {1 Field table} *)

(** When a field's JSON member is written. An absent optional member
    reads as the field's {!superscalar} value. *)
type presence =
  | Required
  | Constant
      (** a member with no field: always written with its one value,
          optional when read, and refused with any other. The only one
          is [no_event_skip], always [false]: stepping the cycle loop is
          an engine mode that only tests choose ({!Engine.mode}), and
          the member stays so that documents and run-cache digests keep
          their bytes *)
  | Non_default
      (** written only when it differs from {!superscalar}, so documents
          and run-cache digests from before the field keep their bytes *)

(** One field of {!t}: its JSON name, whether it is a [bool] (carried as
    0 or 1; [set] reads any non-zero value as [true]), and the range
    {!check} accepts ([hi = max_int]: no bound). *)
type field = {
  name : string;
  flag : bool;
  presence : presence;
  lo : int;
  hi : int;
  get : t -> int;
  set : t -> int -> t;
}

(** Every field of {!t}, in record order, with the [Constant] member
    where its field was, and the only list of them: [Pf_report]'s JSON
    codec, run-cache digest and run-cache entry all walk it. A new knob
    is a record field and an entry here. *)
val fields : field list

(** [Error] naming the first field outside its range. Ints are at least
    0; [max_tasks], [tracker_entries] and [ras_depth] at least 1 (the
    engine, built without bounds checks, indexes an empty array below
    that). The fields that size an allocation are capped: [max_tasks]
    at 256, [tracker_entries] and [ras_depth] at 4,096,
    [scheduler_entries] and [divert_entries] at 65,536. *)
val check : t -> (unit, string) result

(** Address mask selecting the L1 I-cache line of a PC, derived once
    from {!Pf_cache.Hierarchy.default_params} (the fetch stage applies
    it to every instruction). *)
val l1i_line_mask : int

val pp : Format.formatter -> t -> unit
