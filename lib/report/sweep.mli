(** Parallel workload×policy sweeps and the report document they emit.

    A sweep is a list of {!spec}s — (workload, policy, optional config
    and window overrides) — fanned out over a [Domain]-based worker
    pool. Preparation (architectural execution, window capture,
    dependence analysis) runs once per distinct (workload, window) pair
    that is simulated and is shared read-only by every simulation of
    that window, exactly the paper's same-dynamic-instructions
    methodology (Section 3.2).

    Results are deterministic in the job count: workload data is seeded
    per workload by [Pf_workloads.Rng] and the timing engine keeps no
    global state, so [~jobs:1] and [~jobs:4] produce identical metric
    values (only the [wall_s] stamps differ). The test suite asserts
    this byte-for-byte on the serialized metrics. *)

(** One cell of the sweep grid. *)
type spec = {
  workload : string;  (** suite name, e.g. ["twolf"] *)
  policy : Pf_core.Policy.t;
  label : string;
      (** unique key of the run within its workload; defaults to the
          policy name, config variants add a suffix ("postdoms\@tasks=4") *)
  config : Pf_uarch.Config.t option;
      (** [None]: the policy's default machine
          ({!Pf_uarch.Config.for_policy}) *)
  window : int option; (** [None]: the workload's default window *)
}

(** [spec name policy] with optional overrides. *)
val spec :
  ?label:string ->
  ?config:Pf_uarch.Config.t ->
  ?window:int ->
  string ->
  Pf_core.Policy.t ->
  spec

(** One completed run: the resolved inputs plus the measured metrics. *)
type run = {
  workload : string;
  label : string;
  policy : string;            (** [Pf_core.Policy.name] of the policy *)
  config : Pf_uarch.Config.t; (** the resolved (effective) configuration *)
  window : int;               (** the resolved window request *)
  instructions : int;         (** instructions actually captured *)
  static_spawns : int;        (** static spawn points of the program *)
  wall_s : float;             (** wall time of this simulation *)
  metrics : Pf_uarch.Metrics.t;
  counters : (string * int) list;
      (** the engine's [Pf_obs.Counters] dump in registration order —
          every named event count, including those with no [Metrics.t]
          field. Serialized as the additive schema-v1 ["counters"]
          member; empty when loaded from a document predating it. *)
}

(** The effective configuration of a spec: its explicit [config] if any,
    otherwise the policy default ({!Pf_uarch.Config.for_policy}). This
    is the value {!execute} simulates with and digests for the cache; it
    is exposed so other schedulers (polyflow_serve) resolve
    identically. *)
val resolve_config : spec -> Pf_uarch.Config.t

(** The run record's canonical JSON encoding — the ["runs"] array
    element of a report document, and exactly the payload a
    {!Run_cache} entry stores and replays. Byte-stable: serializing a
    decoded run reproduces the original bytes. *)
val run_to_json : run -> Json.t

(** @raise Json.Decode_error on schema violations. *)
val run_of_json : Json.t -> run

(** A (workload, window) pair that {!execute} prepared because at
    least one cache miss simulated on it, exposed so callers can run
    extra analyses (ILP limits, CPI stacks) on the same windows.
    A window whose runs all replayed from the cache is not prepared;
    {!Pf_uarch.Run.prepare} with the same inputs builds an identical
    one. *)
type prepared_window = {
  pw_workload : string;
  pw_window : int;
  pw_prepare_s : float;  (** wall seconds {!Pf_uarch.Run.prepare} took *)
  prep : Pf_uarch.Run.prepared;
}

(** What {!execute} actually did, reported through [?on_stats]:
    how many runs replayed from the cache, how many were simulated, and
    of those how many shared a work item with other runs of the same
    prepared window (a batch of two or more, simulated one after
    another by one worker) versus ran as a batch of one. *)
type exec_stats = {
  cached_runs : int;     (** replayed verbatim from the {!Run_cache} *)
  simulated_runs : int;  (** actually simulated (batched + solo) *)
  batched_runs : int;    (** simulated as members of a batch of >= 2 *)
  batch_count : int;     (** number of those multi-member batches *)
  prepare_ms : float;    (** total wall milliseconds spent preparing
                             the windows the misses simulate (summed
                             across workers, so it can exceed the
                             sweep's elapsed wall); 0 on a fully cached
                             sweep *)
}

(** [execute ~jobs specs] runs every spec and returns the runs in spec
    order together with the windows it prepared: exactly those that at
    least one cache miss simulated, in the misses' first-use order.
    [jobs <= 1] runs inline on the calling domain; higher values spawn
    that many worker domains. [progress] is called from the calling
    domain only, at least once per completed item; the items, and
    [total], count only the prepared windows and the batches, so a
    fully cached sweep never calls it.

    [cache] consults and fills a {!Run_cache}: a spec whose digest hits
    replays the stored run verbatim (its original [wall_s] included, so
    a fully-hit sweep reproduces its document byte for byte) and needs
    neither a simulation nor a window, so a fully cached sweep prepares
    nothing. Invalid entries are reported on stderr and resimulated.

    [trace_store] routes window preparation through the persistent
    {!Pf_trace.Trace_store}: repeat preparations load the captured
    window from disk instead of interpreting the fast-forward prefix,
    capturing the window and running the dependence pass again.
    Results are byte-identical with and without it. Only windows that
    are prepared are looked up: a fully cached sweep does not touch the
    store and so does not refresh its entries' LRU recency, which a
    capped store may then evict first.

    Cache misses sharing a (workload, window) are grouped, in first-use
    order, into batches of at most [batch] members (default 8; values
    [<= 1] disable batching). A batch is one work item: a worker
    simulates its members one after another on the shared prepared
    window, so batching decides only which domain runs which spec and
    never changes a result. Each run's [wall_s] is its own simulation
    time. [on_stats] receives the cached/simulated/batched breakdown
    once, from the calling domain, before [execute] returns.
    @raise Invalid_argument on an unknown workload name or duplicate
    (workload, label) pairs. *)
val execute :
  ?progress:(done_:int -> total:int -> unit) ->
  ?cache:Run_cache.t ->
  ?trace_store:Pf_trace.Trace_store.t ->
  ?batch:int ->
  ?on_stats:(exec_stats -> unit) ->
  jobs:int ->
  spec list ->
  run list * prepared_window list

(** {1 Documents} *)

(** A report document: manifest plus runs, plus optional additive
    extras. This is the payload of every [BENCH_*.json] artifact. *)
type t = {
  manifest : Manifest.t;
  runs : run list;
  extras : (string * Json.t) list;
      (** additive schema-v1 members serialized as an ["extras"] object
          (omitted when empty, and absent in documents predating it) —
          e.g. the sweep's {!exec_stats} breakdown under ["execution"].
          Consumers must ignore keys they don't know. *)
}

(** Wrap runs produced outside {!execute} (e.g. a single CLI run) in a
    schema-stamped document. *)
val document :
  ?extras:(string * Json.t) list ->
  tool:string ->
  jobs:int ->
  wall_s:float ->
  run list ->
  t

val to_json : t -> Json.t

(** @raise Json.Decode_error on schema violations. *)
val of_json : Json.t -> t

(** Pretty-printed JSON, trailing newline included. *)
val save : string -> t -> unit

(** @raise Json.Parse_error or [Json.Decode_error] on a bad file,
    [Sys_error] on I/O failure. *)
val load : string -> t

(** The whole document as CSV: a header row, then one row per run. *)
val to_csv : t -> string
