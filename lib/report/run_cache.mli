(** Content-addressed cache of sweep results, sharded by digest prefix,
    with an optional LRU entry cap.

    A cache entry is one {!Codec.run} in a compact binary encoding,
    stored under a digest of everything that determines its metrics:
    workload identity (name, fast-forward, window), policy, label, the
    full effective {!Pf_uarch.Config.t}, and
    {!Pf_uarch.Engine.timing_version}. The simulator is deterministic in
    exactly these inputs (the test suite holds jobs=1 and jobs=4
    byte-identical), so a hit can stand in for a simulation without
    changing a single byte of the report document — cached entries keep
    their original [wall_s] stamp, bit for bit, for the same reason.
    Bumping [Engine.timing_version] on any timing-visible engine change
    orphans every stale entry at once.

    {b Entry.} A 40-byte header (magic ["PFRN"], {!format_version} as
    an int32 LE, the entry's own 32-character digest), the run
    (length-prefixed strings, fixed-width little-endian ints, [wall_s]
    as its IEEE bits), and a 16-byte raw MD5 footer over everything
    before it; about 1 KB per run. JSON is for documents and serve
    replies, not for entries: a probe reads and checks the entry
    without parsing anything. {!encode} and {!decode} are exposed for
    tests.

    {b Layout.} Entries live at [dir/ab/<digest>.run] where [ab] is the
    first two hex characters of the digest, so directory listings stay
    short under service load. A cache written before the binary entry
    holds [.json] files, which this module never reads: its first sweep
    simulates again and fills the cache anew.

    {b LRU cap.} With [cap > 0] the cache holds at most [cap] entries;
    publishing one more evicts the least-recently-used entry (a hit
    counts as a use, and refreshes the file mtime so recency survives
    restarts — a capped {!create} rebuilds the index from mtimes).
    [cap = 0] (the default) never evicts, and opens without walking the
    directory: it walks on the first {!stats} call.

    {b Concurrency.} One [t] may be shared freely between domains and
    threads (the sweep worker pool and the polyflow_serve connection
    threads both do): index updates are mutex-protected, entries are
    written atomically (temp file + rename), an entry that is gone when
    a probe opens it is a plain miss, and a file that is unreadable or
    fails to decode is reported on stderr and treated as a miss; the
    fresh result then overwrites it. *)

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
    missing parents, [mkdir -p] style — if necessary. [cap] bounds the
    entry count (0 = unlimited); a capped cache indexes the entries on
    disk by mtime here and evicts the oldest beyond the cap at once.
    [counters] registers the four stats counters in the caller's
    {!Pf_obs.Counters} registry so services can export them. *)
val create : ?cap:int -> ?counters:Pf_obs.Counters.t -> dir:string -> unit -> t

val dir : t -> string
val cap : t -> int

(** Walks the cache directory on the first call if {!create} did not,
    so [entries] counts the entries on disk. *)
val stats : t -> stats

(** The content digest of one run's inputs, in hex. Each distinct
    config (by value) is encoded once per process, through a memo of at
    most 64 configs that empties when full; the digest is the same
    either way. *)
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

(** {1 Typed calls} *)

(** [find_run t ~digest ~workload ~label] returns the run stored under
    [digest], or [None] on a miss or an invalid entry (the latter also
    warns on stderr). An entry whose run names another workload or
    label than the caller's is invalid too. A hit marks the entry most
    recently used. *)
val find_run :
  t -> digest:string -> workload:string -> label:string -> Codec.run option

(** [store_run t ~digest run] publishes an entry atomically, replacing
    any previous one, then evicts least-recently-used entries while over
    the cap. *)
val store_run : t -> digest:string -> Codec.run -> unit

(** {1 Entry codec} *)

(** The entry format's version; an entry of any other is a miss. *)
val format_version : int

(** The entry bytes of [run] filed under [digest]. *)
val encode : digest:string -> Codec.run -> string

(** The run of an entry filed under [digest]. Never raises: a truncated
    or altered entry, a foreign magic or format version, an entry
    filed under another digest, or trailing bytes give [Error]. *)
val decode : digest:string -> string -> (Codec.run, string) result

(** {1 JSON adapters}

    For callers that still trade in run objects; each is a
    {!Codec.run_to_json} or {!Codec.run_of_json} over the typed
    calls. [find] does not check the entry's workload and label. *)

val find : t -> digest:string -> Json.t option

(** @raise Json.Decode_error if [run_json] is not a run object. *)
val store : t -> digest:string -> Json.t -> unit
