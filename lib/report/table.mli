(** Speedup and aggregate tables computed from report documents.

    {!Figures.print} lays out every paper table through this module,
    for the bench harness and for [polyflow_sim report] alike, so
    [report] re-renders every table a saved [BENCH_*.json] holds byte
    for byte as the producing run printed it — which is what makes the
    artifacts diffable across commits. Figures 5 and 8, the limit study
    and the CPI stacks stay in the bench's output only, because they
    read the build or re-prepare windows. *)

(** The label of the superscalar baseline run (["superscalar"]). *)
val baseline_label : string

(** Workload names in first-appearance order. *)
val workloads : Sweep.t -> string list

(** Run labels in first-appearance order. *)
val labels : Sweep.t -> string list

val find_run : Sweep.t -> workload:string -> label:string -> Sweep.run option

(** Percent speedup of a run over its workload's baseline run.
    @raise Not_found if the workload has no {!baseline_label} run. *)
val speedup_pct : Sweep.t -> Sweep.run -> float

(** Mean over the workloads that have both the label and a baseline;
    [None] if no workload does. *)
val average_speedup : Sweep.t -> label:string -> float option

(** [print_speedup_table t ~workloads ~labels] — the Figure 9/10/12
    layout: one row per workload, one [+x.y%] column per label, the
    baseline IPC in a trailing column, and an Average row. Cells whose
    run is missing from the document print as [-]. Label columns are as
    wide as the longest label, and the benchmark column one wider than
    the longest workload name (never under 10), so long variant labels
    and loop-nest names stay aligned. *)
val print_speedup_table :
  out:Format.formatter ->
  workloads:string list ->
  labels:string list ->
  Sweep.t ->
  unit

(** Every non-baseline label with its average speedup and the number of
    workloads it covers, in document order. *)
val print_average_table : out:Format.formatter -> Sweep.t -> unit
