(** Unified cycle-level timing model (Figure 7).

    The engine replays a captured execution window (the architectural
    oracle's correct path) through a parameterised pipeline:

    - frontend: per-task fetch with gshare + RAS + indirect-target
      prediction, at most one taken branch per task per cycle, I-cache
      stalls, and misprediction stalls that block {e only the task
      containing the branch} — younger control-equivalent tasks keep
      fetching, which is where PolyFlow's advantage comes from;
    - the Task Spawn Unit: when the tail task fetches a PC with a hint
      (static hint cache, or a run-time source named by the input's
      [speculation]), a new task starts at the next dynamic occurrence
      of the target PC (located with the trace, as in Section 3.2);
    - backend: shared ROB/scheduler/FUs; inter-task register consumers
      are diverted until their producers dispatch (divert queue);
      inter-task loads either synchronise through the store-set
      predictor or speculate — a speculative load issuing before its
      producing store completes squashes its task and all younger ones;
    - in-order retirement across tasks, which also trains the
      reconvergence predictor.

    With [max_tasks = 1] this is exactly the superscalar baseline,
    whatever the policy. Wrong-path instructions are modelled as fetch
    stalls rather than fetched-and-squashed work; see DESIGN.md. *)

(** Timing-model version tag. Bumped whenever an engine change could
    legitimately alter cycles or metrics (the golden suite pins the
    actual numbers); the sweep result cache includes it in the digest
    that keys cached run records, so stale results from an older timing
    model are never returned. *)
val timing_version : string

(** Pre-allocate the calling domain's pooled scratch (the window-sized
    pipeline-state arrays) for windows of [window] instructions, so the
    domain's first simulation of that size pays no major-heap
    allocation. The pool is per-domain state that [simulate] keeps warm
    automatically across calls; this only matters for a long-lived
    worker domain (a polyflow_serve pool member) that wants its first
    request to be as fast as its thousandth. A later checkout of a
    different window size simply misses and allocates fresh.
    @raise Invalid_argument if [window <= 0]. *)
val prewarm_scratch : window:int -> unit

(** How the cycle loop runs. Every mode gives the same metrics, and
    only tests choose one other than [Fast]. *)
type mode =
  | Fast
      (** jump over stretches of cycles in which nothing can act, to the
          next scheduled event *)
  | Self_checked
      (** [Fast], and every 64 cycles check the engine's running counts
          and queues against a recount of the pipeline state, the task
          regions and the memory-dependence tracker, and check that every
          issued instruction completes at least its flat latency (a load:
          the L1D hit latency) after each producer it waited for. A
          mismatch raises [Failure]. The fuzz oracles run every policy
          this way. *)
  | Stepped
      (** one cycle at a time: the reference loop that
          [test/test_skip.ml] holds [Fast] against *)

type input = {
  config : Config.t;
  trace : Pf_trace.Tracer.t;
      (** the window's columns, with dependence info filled in —
          captured once per window by [Run.prepare] and shared read-only
          between every simulation of that window (docs/ENGINE.md) *)
  occurrence : Pf_trace.Occurrence.t;
  hints : Pf_core.Hint_cache.t;     (** static spawn points *)
  speculation : Pf_core.Safety_filter.t Pf_core.Policy.speculation;
      (** the policy's row of the {!Pf_core.Policy.descriptor} table,
          with the filter built: [Speculate d] runs every task at one
          level and adds [d]'s run-time spawn candidates;
          [Safety_levels f] classifies every spawn target through [f]
          (bypass regions are never spawned, conservative tasks
          synchronise every cross-task load, optimistic tasks run under
          the memory-dependence tracker); [Near_carry_sync]
          force-synchronises at dispatch each cross-task load whose
          producing store lies within [Config.doacross_sync_distance]
          immediately-preceding live tasks, and carries from further
          back speculate under the tracker. *)
  sink : Pf_obs.Sink.t;
      (** event hooks, called at every pipeline boundary plus once per
          cycle per task slot with a cycle-accounting reason code. Pass
          [Pf_obs.Sink.null] for a plain run: the engine tests
          [Sink.is_null] once and then skips every hook site, so an
          unobserved simulation pays only a dead boolean test per site.
          Sinks must never feed back into timing; [test/test_golden.ml]
          and [test/test_obs.ml] hold metrics byte-identical with sinks
          attached and detached. *)
  counters : Pf_obs.Counters.t option;
      (** registry receiving the engine's named event counts (the same
          values {!Metrics.t} reports, plus counts with no Metrics
          field, e.g. [spawn_suppressed], [divert_released],
          [load_syncs]). [None] uses a private throwaway registry —
          counting always happens; the option only controls whether the
          caller can read the registry afterwards. *)
  mode : mode;
}

(** Run to completion (every window instruction retired).
    @raise Failure if the watchdog trips (a scheduling deadlock — a bug,
    not a workload property).
    @raise Invalid_argument if [trace] is empty or [config] fails
    {!Config.check}. *)
val simulate : input -> Metrics.t
