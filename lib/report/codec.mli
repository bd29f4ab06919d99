(** JSON and CSV codecs for the simulator's value types.

    These are the building blocks of the report schema
    ([docs/REPORT_SCHEMA.md]); {!Sweep} assembles them into full
    documents. Every [.._of_json] is strict — a missing or mistyped
    field raises {!Json.Decode_error} naming the field — and every
    round trip is exact: [metrics_of_json (metrics_to_json m) = m]. *)

(** {1 Spawn categories} *)

(** Inverse of [Pf_core.Spawn_point.category_name]. *)
val category_of_name : string -> Pf_core.Spawn_point.category option

(** {1 Metrics} *)

(** Serializes every counter plus a derived ["ipc"] field (for
    consumers that only read the JSON); the spawn counts keep their
    list order so the round trip is structural equality. *)
val metrics_to_json : Pf_uarch.Metrics.t -> Json.t

(** Ignores the derived ["ipc"] field and rebuilds the record from the
    raw counters. *)
val metrics_of_json : Json.t -> Pf_uarch.Metrics.t

(** {1 Engine counters}

    A [Pf_obs.Counters] dump, attached to run records as the additive
    schema-v1 ["counters"] field: one JSON object member per counter,
    registration order preserved. *)

val counters_to_json : (string * int) list -> Json.t

val counters_of_json : Json.t -> (string * int) list

(** {1 CPI stacks}

    Schema-v1 record for one run's cycle accounting: identifying keys
    plus the [Pf_obs.Cpi_stack] matrix. *)

val cpi_stack_to_json :
  workload:string -> label:string -> Pf_obs.Cpi_stack.t -> Json.t

(** Returns [(workload, label, stack)]. *)
val cpi_stack_of_json : Json.t -> string * string * Pf_obs.Cpi_stack.t

(** {1 Machine configuration} *)

(** All knobs of [Pf_uarch.Config.t], one JSON member per record field. *)
val config_to_json : Pf_uarch.Config.t -> Json.t

val config_of_json : Json.t -> Pf_uarch.Config.t

(** {1 Run records} *)

(** One completed run; {!Sweep.run} re-exports it with its field
    documentation. It lives here, below {!Run_cache}, because the run
    cache encodes it. *)
type run = {
  workload : string;
  label : string;
  policy : string;
  config : Pf_uarch.Config.t;
  window : int;
  instructions : int;
  static_spawns : int;
  wall_s : float;
  metrics : Pf_uarch.Metrics.t;
  counters : (string * int) list;
}

(** The canonical JSON of a run: a report document's ["runs"] element
    and a serve reply's ["run"] member. Byte-stable: serializing a
    decoded run reproduces the original bytes. *)
val run_to_json : run -> Json.t

(** A missing ["counters"] member (documents predating it) decodes as
    [[]]. *)
val run_of_json : Json.t -> run

(** {1 CSV}

    One row per run; {!Sweep.to_csv} prepends the identifying columns.
    [metrics_csv_header] and [metrics_csv_cells] always have the same
    arity: the five spawn categories get one fixed column each
    regardless of which categories a run exercised. *)

val metrics_csv_header : string list

val metrics_csv_cells : Pf_uarch.Metrics.t -> string list
