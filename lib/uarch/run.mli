(** End-to-end orchestration: execute a program on the architectural
    oracle, capture a window, analyse dependences and spawn points once,
    then simulate any number of policies against the shared window (the
    paper's methodology: same dynamic instructions for every
    configuration, Section 3.2). *)

type prepared = {
  program : Pf_isa.Program.t;
  trace : Pf_trace.Tracer.t;
  flat : Pf_trace.Flat_trace.t;
      (** the window in structure-of-arrays form — immutable, shared by
          every simulation of this window (docs/ENGINE.md) *)
  occurrence : Pf_trace.Occurrence.t;
  all_spawns : Pf_core.Spawn_point.t list; (** every potential spawn point *)
}

(** [prepare program ~setup ~fast_forward ~window] creates the machine,
    applies [setup] (memory/data initialisation), fast-forwards, captures
    the window and computes the dependence, flat-trace and occurrence
    indexes. Everything in the result is immutable, so one [prepared]
    value may be simulated concurrently from many domains.

    With [store], the capture and dependence pass go through the
    persistent {!Pf_trace.Trace_store}: a hit loads the window from
    disk, a miss prepares it as above and publishes the result. Both
    paths yield a byte-identical [prepared] — downstream metrics,
    goldens and run-cache digests cannot observe which one ran.
    @raise Invalid_argument if the captured window is empty. *)
val prepare :
  ?store:Pf_trace.Trace_store.t ->
  Pf_isa.Program.t ->
  setup:(Pf_isa.Machine.t -> unit) ->
  fast_forward:int ->
  window:int ->
  prepared

(** Simulate one policy. [config] defaults to the policy's machine,
    {!Config.for_policy}. For [Policy.Adaptive] the spawn points are
    additionally classified by a {!Pf_core.Safety_filter} built from
    the config's safety thresholds.
    [sink] (default {!Pf_obs.Sink.null}) attaches observability hooks
    and [counters] a registry for the engine's named event counts — see
    {!Engine.input} for both contracts. *)
val simulate :
  ?sink:Pf_obs.Sink.t ->
  ?counters:Pf_obs.Counters.t ->
  ?config:Config.t ->
  prepared ->
  policy:Pf_core.Policy.t ->
  Metrics.t

(** One member of a same-window batch: a policy with the same optional
    overrides {!simulate} takes. Build with {!batch_run}. *)
type batch_run = {
  br_policy : Pf_core.Policy.t;
  br_config : Config.t option;
  br_sink : Pf_obs.Sink.t;
  br_counters : Pf_obs.Counters.t option;
}

(** [batch_run policy] with the same defaults as {!simulate}:
    [config] falls back to the policy default, [sink] to
    {!Pf_obs.Sink.null}. *)
val batch_run :
  ?sink:Pf_obs.Sink.t ->
  ?counters:Pf_obs.Counters.t ->
  ?config:Config.t ->
  Pf_core.Policy.t ->
  batch_run

(** Simulate several policies against one prepared window, one after
    another, in member order: each member is exactly a {!simulate} call
    on the shared window, so its metrics, sink event stream and counter
    registry match a solo run (test/test_batch.ml). A failing member
    raises its exception and the later members do not run. *)
val simulate_batch : prepared -> batch_run list -> Metrics.t list

(** Superscalar baseline ([Policy.No_spawn] on {!Config.superscalar}). *)
val baseline : prepared -> Metrics.t
