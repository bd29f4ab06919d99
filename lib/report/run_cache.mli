(** Content-addressed cache of sweep results, sharded by digest prefix,
    with an optional LRU entry cap.

    A cache entry is one {!Sweep.run} serialized to JSON, stored under a
    digest of everything that determines its metrics: workload identity
    (name, fast-forward, window), policy, label, the full effective
    {!Pf_uarch.Config.t}, and {!Pf_uarch.Engine.timing_version}. The
    simulator is deterministic in exactly these inputs (the test suite
    holds jobs=1 and jobs=4 byte-identical), so a hit can stand in for a
    simulation without changing a single byte of the report document —
    cached entries keep their original [wall_s] stamp for the same
    reason. Bumping [Engine.timing_version] on any timing-visible engine
    change orphans every stale entry at once.

    {b Layout.} Entries live at [dir/ab/<digest>.json] where [ab] is the
    first two hex characters of the digest, so directory listings stay
    short under service load. Flat [dir/<digest>.json] entries written
    by older revisions are migrated into their shard on {!create}.

    {b LRU cap.} With [cap > 0] the cache holds at most [cap] entries;
    publishing one more evicts the least-recently-used entry (a {!find}
    hit counts as a use, and refreshes the file mtime so recency
    survives restarts — on {!create} the index is rebuilt from mtimes).
    [cap = 0] (the default) never evicts.

    {b Concurrency.} One [t] may be shared freely between domains and
    threads (the sweep worker pool and the polyflow_serve connection
    threads both do): index updates are mutex-protected, entries are
    written atomically (temp file + rename), and a file that is
    unreadable, unparseable, or fails its digest check is reported on
    stderr and treated as a miss; the fresh result then overwrites
    it. *)

type t

(** Monotonic totals since {!create}, plus the current entry count. The
    same four totals are published as [run_cache_hits], [run_cache_misses],
    [run_cache_stores] and [run_cache_evictions] in the registry passed
    to {!create}. *)
type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
}

(** [create ~dir ()] opens the cache, creating the directory — and any
    missing parents, [mkdir -p] style — if necessary, migrating legacy
    flat entries into their shards, and indexing existing entries by
    mtime for LRU order. [cap] bounds the entry count (0 = unlimited;
    over-cap entries found on disk are evicted immediately).
    [counters] registers the four stats counters in the caller's
    {!Pf_obs.Counters} registry so services can export them. *)
val create : ?cap:int -> ?counters:Pf_obs.Counters.t -> dir:string -> unit -> t

val dir : t -> string
val cap : t -> int
val stats : t -> stats

(** The content digest of one run's inputs, in hex. *)
val digest :
  workload:string ->
  window:int ->
  fast_forward:int ->
  policy:string ->
  label:string ->
  config:Pf_uarch.Config.t ->
  string

(** The sharded on-disk path of an entry (whether or not it exists). *)
val path : t -> digest:string -> string

(** [find t ~digest] returns the stored run JSON, or [None] on a miss
    or an invalid entry (the latter also warns on stderr). A hit marks
    the entry most recently used. *)
val find : t -> digest:string -> Json.t option

(** [store t ~digest run_json] publishes an entry atomically, replacing
    any previous one, then evicts least-recently-used entries while over
    the cap. *)
val store : t -> digest:string -> Json.t -> unit
