(** Persistent preparation cache: a content-addressed store of
    captured windows. A repeat {!prepare} loads the window from disk
    instead of creating and setting up a machine, interpreting the
    fast-forward prefix, capturing the window and running the
    dependence pass.

    A captured window (the [Dyn.t] records with producer indices
    already filled by {!Depinfo.compute}, plus the fast-forward count)
    is serialized in a compact versioned binary codec and published
    through {!Pf_cache_store.Cache_store} ([dir/ab/<digest>.trace];
    digest-prefix sharding, atomic publish, optional LRU cap). The key
    digests everything that determines the captured records: the
    trace-format version, the program content (instructions, entry,
    procedure table, indirect-target profile), the {e effect} of the
    setup function — its closure cannot be hashed, so it is run on a
    fresh machine and the resulting architectural state fingerprinted
    via {!Pf_isa.Machine.state_digest} — and the fast-forward and
    window counts. Entries survive the process: a cold sweep, a daemon
    restart or a policy-only study re-loads the window from disk
    instead of re-preparing it. A hit is byte-identical to from-scratch
    preparation (the parity suite in test/test_trace_store.ml holds Dyn
    streams, flat traces and full run records equal), so downstream
    goldens and run-cache digests never notice which path produced the
    window.

    {b Invalidation.} Any change to the program content, the setup's
    observable effect, the fast-forward or window count, or
    [format_version] (bump it when the codec or [Dyn.t] semantics
    change) produces a different digest, orphaning stale entries in
    place. Corrupt, truncated or foreign-version entries downgrade to
    a miss with a warning on stderr and are overwritten by the fresh
    result.

    {b Determinism requirement.} Setups must be deterministic (same
    writes on every call) — the same assumption the run cache already
    makes when it keys runs by workload name. The fingerprint memo
    additionally keys by physical identity of the (program, setup)
    pair, so long-lived workload values skip even the fingerprint
    machine run.

    {b Concurrency.} One [t] may be shared freely between domains and
    threads (sweep workers and serve connection handlers do). *)

type t

(** Monotonic totals since {!create}, plus current sizes. [hits],
    [misses], [stores], [evictions] mirror the
    [trace_store_{hits,misses,stores,evictions}] counters registered in
    the registry passed to {!create}; [bytes] ([trace_store_bytes])
    counts payload bytes read on hits plus written on stores. *)
type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
  bytes : int;
}

(** Bump on any change to the entry codec or to what a stored record
    means; stale entries then miss by key. *)
val format_version : int

(** [create ~dir ()] opens the store ([mkdir -p] as needed). [cap]
    bounds the on-disk entry count (0 = unlimited, the default).
    [counters] registers the stats counters in the caller's
    registry. *)
val create :
  ?cap:int ->
  ?counters:Pf_obs.Counters.t ->
  dir:string ->
  unit ->
  t

val dir : t -> string
val cap : t -> int
val stats : t -> stats

(** The store key for one preparation, in hex. Runs [setup] on a fresh
    machine to fingerprint it unless the (program, setup) pair is
    already memoized. *)
val digest :
  t ->
  Pf_isa.Program.t ->
  setup:(Pf_isa.Machine.t -> unit) ->
  fast_forward:int ->
  window:int ->
  string

(** The sharded on-disk path of an entry (whether or not it exists). *)
val path : t -> digest:string -> string

(** [prepare t program ~setup ~fast_forward ~window] returns the
    captured window, with producer indices already filled (callers
    must {e not} run {!Depinfo.compute} again): from the store on a
    hit; otherwise by creating and setting up a machine, capturing the
    window with {!Tracer.capture}, computing the dependence pass and
    publishing the result (non-empty windows only). Both paths return
    byte-identical traces. *)
val prepare :
  t ->
  Pf_isa.Program.t ->
  setup:(Pf_isa.Machine.t -> unit) ->
  fast_forward:int ->
  window:int ->
  Tracer.t
