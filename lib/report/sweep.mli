(** Parallel workload×policy sweeps and the report document they emit.

    A sweep is a list of {!spec}s — (workload, policy, optional config
    and window overrides) — fanned out over a [Domain]-based worker
    pool. Preparation (architectural execution, window capture,
    dependence analysis) runs once per distinct (workload, window) pair
    that is simulated and is shared read-only by every simulation of
    that window, exactly the paper's same-dynamic-instructions
    methodology (Section 3.2). A prepared window lives from the first
    batch of its simulations to the last, so a sweep holds at most one
    window per busy worker, not every window it touches.

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
type run = Codec.run = {
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
    is the value {!resolve} puts in [r_config]. *)
val resolve_config : spec -> Pf_uarch.Config.t

(** The run record's canonical JSON encoding ({!Codec.run_to_json}) —
    the ["runs"] array element of a report document and the ["run"]
    member of a serve reply. A {!Run_cache} entry holds the same record
    in a binary encoding whose decoded run renders to exactly these
    bytes. Byte-stable: serializing a decoded run reproduces the
    original bytes. *)
val run_to_json : run -> Json.t

(** @raise Json.Decode_error on schema violations. *)
val run_of_json : Json.t -> run

(** {1 The steps of one run}

    {!execute}, [Pf_serve.Scheduler] and [polyflow_sim run] all
    {!resolve} a spec, {!acquire} its window and {!simulate_run} it;
    {!execute} and the scheduler probe the cache with {!cached}. *)

type resolved = {
  r_spec : spec;
  r_workload : Pf_workloads.Workload.t;  (** the suite entry *)
  r_window : int;  (** the spec's window, else the workload's; > 0 *)
  r_config : Pf_uarch.Config.t;  (** {!resolve_config} *)
  r_digest : string;  (** the run's {!Run_cache.digest} *)
}

type resolve_error = Unknown_workload | Non_positive_window of int

(** Looks up the workload and computes the rest of {!resolved}. *)
val resolve : spec -> (resolved, resolve_error) result

(** One (workload, window) and its prepared window, if any. *)
type slot

val window_slot : Pf_workloads.Workload.t -> window:int -> slot

(** The slot's window, prepared (through [trace_store]) on first use:
    concurrent callers wait for that one preparation, and [Some s] tells
    the caller that did it, in [s] wall seconds. A preparation that
    raises empties the slot, so the next caller tries again. *)
val acquire :
  ?trace_store:Pf_trace.Trace_store.t ->
  slot ->
  Pf_uarch.Run.prepared * float option

(** The run [cache] holds for a resolved spec: {!Run_cache.find_run}
    under its digest, so an entry that fails to decode or names another
    workload or label is a miss (warned on stderr) that the caller
    simulates and stores over. *)
val cached : Run_cache.t -> resolved -> run option

(** Simulates a resolved spec on its prepared window (with [sink]),
    timing it as [wall_s], and stores the record in [cache]. *)
val simulate_run :
  ?cache:Run_cache.t ->
  ?sink:Pf_obs.Sink.t ->
  resolved ->
  Pf_uarch.Run.prepared ->
  run

(** {1 Sweeps} *)

(** A (workload, window) pair that {!execute} prepared because at
    least one cache miss simulated on it, and how long that took. The
    window itself is dropped after its last batch, so callers that run
    extra analyses (ILP limits, CPI stacks) on the same windows prepare
    them again: {!Pf_uarch.Run.prepare} with the same inputs builds an
    identical one, and through a trace store it is a load. A window
    whose runs all replayed from the cache is not prepared. *)
type prepared_window = {
  pw_workload : string;
  pw_window : int;
  pw_prepare_s : float;  (** wall seconds {!Pf_uarch.Run.prepare} took *)
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
                             the windows the misses simulate, summed
                             across workers: it can exceed the sweep's
                             elapsed wall, and it overlaps simulation
                             running on other workers; 0 on a fully
                             cached sweep *)
}

(** [execute ~jobs specs] runs every spec and returns the runs in spec
    order together with the windows it prepared: exactly those that at
    least one cache miss simulated, in the misses' first-use order.
    [jobs <= 1] runs inline on the calling domain; higher values spawn
    that many worker domains. [progress] is called from the calling
    domain only, as batches complete: [done_] and [total] count
    batches, the work items described below, so a fully cached sweep
    never calls it.

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
    time. The first batch of a window to start prepares it, once, while
    batches of the same window claimed meanwhile by other workers wait
    for that preparation ({!acquire}); the batch that finishes last
    drops it.
    [on_stats] receives the cached/simulated/batched breakdown once,
    from the calling domain, before [execute] returns.

    A failing preparation or simulation fails the sweep: every other
    batch still runs (a batch whose window failed to prepare tries it
    again),
    each window is released even by a batch that raised, and once the
    pool has drained [execute] re-raises the failure of the lowest-index
    batch.
    @raise Invalid_argument on a {!resolve_error} or duplicate
    (workload, label) pairs, before any window is prepared. *)
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
