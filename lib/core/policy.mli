(** Task-selection (spawn) policies — the subject of the paper's
    evaluation (Section 4).

    A policy selects a subset of the potential spawn points:

    - individual heuristics ([Categories [c]]) — Figure 9;
    - combinations of heuristics — Figure 10;
    - [Postdoms]: every immediate-postdominator spawn (loop fall-through,
      procedure fall-through, hammock and other) — the paper's
      control-equivalent spawning;
    - [Postdoms_minus c]: the ablation of Figure 11;
    - [Rec_pred]: spawn points found at run time by the reconvergence
      predictor plus procedure fall-throughs at calls — Figure 12. The
      static selection is empty; the engine queries the predictor.
    - [Dmt]: the Dynamic Multi-Threading heuristics of Akkary and
      Driscoll discussed in the paper's related work (Section 5): spawn
      at the static address following each backward branch (an
      approximate loop fall-through) and at the return address of each
      call — no compiler information, no reconvergence prediction.
    - [Adaptive]: three-level adaptive speculation. Every static spawn
      point is a candidate, each one classified by the {!Safety_filter}
      ({!Safety_levels}).
    - [Doacross]: DOACROSS-style iteration spawning. Only the loop
      back-edge ([Loop_iter]) spawn points are selected, so each live
      task is one loop iteration, and near carries synchronise
      ({!Near_carry_sync}). *)

type t =
  | No_spawn
  | Categories of Spawn_point.category list
  | Postdoms
  | Postdoms_minus of Spawn_point.category
  | Rec_pred
  | Dmt
  | Adaptive
  | Doacross

(** Static spawn points enabled by the policy. *)
val select : t -> Spawn_point.t list -> Spawn_point.t list

(** {1 Speculation descriptor}

    Besides its static selection, each policy is one row of a table
    (tabulated in docs/ENGINE.md): where the Task Spawn Unit also spawns
    at run time, how spawned tasks treat cross-task loads, and the
    machine the policy runs on when no config is given. A new policy
    that reuses an existing discipline is one constructor and one row. *)

(** Spawn candidates found at run time, beside the static hint cache. *)
type dynamic_spawns =
  | No_dynamic
  | Reconvergence
      (** the reconvergence predictor (Section 2.4) at branches and
          indirect jumps, plus procedure fall-throughs at calls *)
  | Dmt_heuristics
      (** the static address after each backward branch and the return
          address of each call *)

(** How spawned tasks treat cross-task loads. Only [Speculate] spawns
    dynamically, so the type holds exactly the combinations a policy
    produces. ['levels] is what the per-region case carries: [unit] in a
    {!descriptor}, the built {!Safety_filter.t} in an engine input. *)
type 'levels speculation =
  | Speculate of dynamic_spawns
      (** one level for every task: a cross-task load synchronises only
          when the store-set predictor says so *)
  | Safety_levels of 'levels
      (** the {!Safety_filter} picks each spawn region's level: bypass
          (never spawned), conservative (every cross-task load
          synchronises) or optimistic *)
  | Near_carry_sync
      (** DOACROSS post/wait: a cross-task load whose producing store
          lies within [Config.doacross_sync_distance] preceding tasks
          synchronises; farther carries speculate *)

(** The machine a policy runs on when no config is given:
    [Config.superscalar], or [Config.polyflow] with the
    memory-dependence tracker on or off. *)
type machine = One_task | Polyflow of { tracker : bool }

type descriptor = { speculation : unit speculation; machine : machine }

val descriptor : t -> descriptor

(** [(descriptor p).speculation = Safety_levels ()]. *)
val uses_safety_filter : t -> bool

(** Short display name, e.g. ["postdoms"], ["loop+loopFT"]. *)
val name : t -> string

(** Every policy name {!of_string} accepts on its own: ["superscalar"]
    (and its alias ["baseline"]), ["postdoms"], ["rec_pred"], ["dmt"],
    ["adaptive"], ["doacross"] and each category name. *)
val names : string list

(** The accepted forms in one line, for help and error texts: {!names},
    then ["postdoms-<category>"] and [+]-joined category combinations. *)
val syntax : string

(** Parse a {!name}-style policy string: one of {!names},
    ["postdoms-<category>"], or a [+]-joined category combination.
    [Error] carries a usage message listing the accepted forms
    ({!syntax}). *)
val of_string : string -> (t, string) result

(** The policy line-ups of each figure. *)
val figure9_policies : t list

val figure10_policies : t list
val figure11_policies : t list
val figure12_policies : t list
