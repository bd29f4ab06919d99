(** JSON and CSV codecs for the simulator's value types.

    These are the building blocks of the report schema
    ([docs/REPORT_SCHEMA.md]); {!Sweep} assembles them into full
    documents. A missing required member raises {!Json.Decode_error}
    naming it. A mistyped value raises it naming the type it expected,
    and, in a config, the member too. Members added to schema v1 later
    are optional: an absent config member of {!config_of_json} reads as
    its default, and an absent ["counters"] of {!run_of_json} as [[]].
    Every round trip is exact: [metrics_of_json (metrics_to_json m) = m]. *)

(** {1 Metrics} *)

(** One member per [Pf_uarch.Metrics.count_names] entry, in that
    order, plus a derived ["ipc"] after ["cycles"] (for consumers that
    only read the JSON) and the ["spawns"] list after
    ["return_mispredicts"], its record place. The spawn counts keep
    their list order so the round trip is structural equality. *)
val metrics_to_json : Pf_uarch.Metrics.t -> Json.t

(** Ignores the derived ["ipc"] field and rebuilds the record from the
    raw counters. *)
val metrics_of_json : Json.t -> Pf_uarch.Metrics.t

(** {1 Engine counters}

    A [Pf_obs.Counters] dump, attached to run records as the additive
    schema-v1 ["counters"] field: one JSON object member per counter,
    registration order preserved. *)

val counters_to_json : (string * int) list -> Json.t

(** {1 Machine configuration} *)

(** One member per [Pf_uarch.Config.fields] entry, in that order, but
    a [Non_default] field only when it differs from
    [Config.superscalar]. *)
val config_to_json : Pf_uarch.Config.t -> Json.t

(** An absent optional member reads as its [Config.superscalar] value.
    Types are checked, ranges are not: that is [Config.check]'s job. A
    mistyped member raises {!Json.Decode_error} naming it:
    [{"width": "x"}] gives ["width": expected int, got string]. So does
    a [Config.Constant] member with any value but its own, saying which
    (["…": must be false]). *)
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
    The metric columns are the [Pf_uarch.Metrics.count_names] entries
    in order, with ["ipc"] (printed [%.6f]) after ["cycles"], then one
    ["spawns_<category>"] column per spawn category.
    [metrics_csv_header] and [metrics_csv_cells] always have the same
    arity: the five spawn categories get one fixed column each
    regardless of which categories a run exercised. *)

val metrics_csv_header : string list

val metrics_csv_cells : Pf_uarch.Metrics.t -> string list
