(** The polyflow_serve request scheduler: a persistent [Domain] worker
    pool behind the run cache, with prepared-window sharing and
    request coalescing.

    The serving path for one run request is

    + {!Pf_report.Sweep.resolve} the request, as
      {!Pf_report.Sweep.execute} does — a served reply is
      byte-identical to the sweep's run record;
    + consult the {!Pf_report.Run_cache} — a hit answers immediately
      with the stored bytes;
    + on a miss, join the in-flight job for the same digest if one
      exists (coalescing), else enqueue a fresh job on the worker pool
      and wait, bounded by the per-request deadline.

    Workers are spawned once at {!create} and live until {!shutdown}:
    each keeps its per-domain {!Pf_uarch.Engine.Scratch} pool warm
    across requests (optionally pre-warmed for expected window sizes).
    Each (workload, window) gets one {!Pf_report.Sweep.slot}, never
    released: concurrent first requests wait on it for one
    preparation, and nothing polls on a window.
    With [trace_store], those builds go through the persistent
    {!Pf_trace.Trace_store}, so a daemon restarted over a populated
    store loads its windows from disk instead of re-preparing them
    (byte-identical replies either way).

    A worker popping a job also drains every other queued job for the
    same (workload, window) — up to 8 — and simulates them one after
    another on the one shared prepared window. Each member is a solo
    simulation ({!Pf_report.Sweep.simulate_run}): its reply is what a
    lone request would get, a member
    whose simulation fails answers only its own request with the
    error, and the group is counted by the [batched_runs] counter.

    A scheduler is safe to call from any number of threads and domains
    concurrently; [polyflow_serve] calls {!run} from one systhread per
    connection. *)

type t

(** [create ~jobs ~counters ()] spawns [jobs] worker domains. [cache]
    enables the run cache ([None] simulates every request);
    [prewarm_windows] pre-allocates each worker's scratch pool for
    those window sizes ({!Pf_uarch.Engine.prewarm_scratch}). The
    registry [counters] receives [run_requests],
    [coalesced_requests], [simulations], [batched_runs] (successful
    simulations that ran in a same-window group of two or more),
    [prep_builds], [prep_reuses]
    and [request_timeouts] (plus the cache's and trace store's
    counters if they were created with the same registry); register
    service-level counters
    in it before any concurrent use — the registry itself is not
    thread-safe to extend, only to increment and read.
    @raise Invalid_argument if [jobs < 1]. *)
val create :
  ?cache:Pf_report.Run_cache.t ->
  ?trace_store:Pf_trace.Trace_store.t ->
  ?prewarm_windows:int list ->
  jobs:int ->
  counters:Pf_obs.Counters.t ->
  unit ->
  t

(** [run t req] serves one run request to completion: the reply is a
    [Run_reply] (with [cached]/[coalesced] telling how it was served)
    or an [Error_reply]. Blocks the calling thread up to the request's
    deadline — [req.timeout_ms], defaulting to [default_timeout_ms]
    (0 = wait forever). On a timeout the reply is a [Timeout] error but
    the underlying simulation keeps running and lands in the cache. *)
val run : t -> ?default_timeout_ms:int -> Protocol.run_request -> Protocol.response

(** Fields for the [stats] reply: worker/in-flight/queued/
    prepared-window gauges, a [prepare_ms] gauge (total wall
    milliseconds spent building prepared windows), cache and
    [trace_store] blocks (or [Null]), and the full counter registry.
    [queued] is the number of jobs accepted but not yet popped by a
    worker ([inflight] also counts jobs being simulated right now);
    [prepared_windows] counts the windows the daemon holds, so a
    window whose preparation failed is left out. *)
val stats_fields : t -> (string * Pf_json.Json.t) list

(** Stop accepting work ({!run} then answers [Shutting_down]), let the
    workers drain every already-queued job, and join them. Idempotent
    in effect; waiters of drained jobs still receive their results. *)
val shutdown : t -> unit
