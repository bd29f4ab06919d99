(** Content-addressed on-disk store, sharded by digest prefix, with an
    optional LRU entry cap.

    This is the machinery shared by the run cache
    ({!Pf_report.Run_cache}) and the persistent trace store
    ({!Pf_trace.Trace_store}): each wraps one [t] with its own digest
    function and entry codec. An entry is an opaque byte string stored
    under a 32-hex-character digest of everything that determines its
    content, so a hit can stand in for recomputation without changing a
    byte.

    {b Layout.} Entries live at [dir/ab/<digest><ext>] where [ab] is
    the first two hex characters of the digest, so directory listings
    stay short under service load. Flat [dir/<digest><ext>] entries
    written by older revisions are migrated into their shard on
    {!create}.

    {b LRU cap.} With [cap > 0] the store holds at most [cap] entries;
    publishing one more evicts the least-recently-used entry (a {!find}
    hit counts as a use, and refreshes the file mtime so recency
    survives restarts — on {!create} the index is rebuilt from mtimes).
    [cap = 0] (the default) never evicts.

    {b Concurrency.} One [t] may be shared freely between domains and
    threads: index updates are mutex-protected, entries are written
    atomically (temp file + rename), and a file that is unreadable or
    fails its codec's validation is reported via [on_invalid] and
    treated as a miss; the fresh result then overwrites it. *)

type t

(** Monotonic totals since {!create}, plus the current entry count. The
    same four totals are published as [<counter_prefix>_hits],
    [_misses], [_stores] and [_evictions] in the registry passed to
    {!create}. *)
type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
}

(** [create ~counter_prefix ~dir ()] opens the store, creating the
    directory — and any missing parents, [mkdir -p] style — if
    necessary, migrating legacy flat entries into their shards, and
    indexing existing entries by mtime for LRU order. [cap] bounds the
    entry count (0 = unlimited; over-cap entries found on disk are
    evicted immediately). [ext] is the entry filename extension
    (default [".json"]). [on_invalid] is called with the path and
    reason whenever an entry is downgraded to a miss. [counters]
    registers the four stats counters in the caller's
    {!Pf_obs.Counters} registry so services can export them. *)
val create :
  ?cap:int ->
  ?counters:Pf_obs.Counters.t ->
  ?ext:string ->
  ?on_invalid:(path:string -> reason:string -> unit) ->
  counter_prefix:string ->
  dir:string ->
  unit ->
  t

val dir : t -> string
val cap : t -> int
val stats : t -> stats

(** Is this a well-formed 32-character lowercase hex digest? *)
val is_hex_digest : string -> bool

(** The sharded on-disk path of an entry (whether or not it exists). *)
val path : t -> digest:string -> string

(** [find t ~digest ~decode] reads the entry's bytes and runs [decode]
    on them. [Ok v] is a hit: the entry is marked most recently used
    (in memory and via its file mtime) and [Some v] is returned.
    [Error reason] — or a missing/unreadable file, or a raising
    [decode] — is a miss: [on_invalid] fires (except for a plainly
    missing file) and [None] is returned. *)
val find : t -> digest:string -> decode:(string -> ('a, string) result) -> 'a option

(** [store t ~digest content] publishes an entry atomically, replacing
    any previous one, then evicts least-recently-used entries while
    over the cap. *)
val store : t -> digest:string -> string -> unit
