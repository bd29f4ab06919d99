(** The benchmark suite: one workload per SPEC2000 integer benchmark the
    paper evaluates, in the paper's figure order, followed by the
    registered members of the parameterized loop-nest family
    ({!Loopnest}).

    Sharing contract: each workload is declared at start-up by name,
    window and fast-forward ({!Workload.decl}), and built once, on first
    use: the first {!build} of its {!entry} (or {!find} or {!all})
    compiles it, under the entry's lock, and that one immutable value
    then serves every caller in every domain and thread — {!find}
    returns the same physical value on every call, and it is the
    matching element of {!all}. Callers that only need the declaration
    (a run's cache key) read {!decl} and build nothing. The physical
    value is what lets the trace store's fingerprint memo, keyed on the
    physical program and setup, hit across calls. It requires each
    workload's [setup] to be deterministic and to touch only the machine
    it is given (see {!Workload.t}). *)

(** One registered workload: its declaration, and its value once built.
    Per-workload facts computed once per process belong here. *)
type entry

(** Lookup by name ("twolf", "vpr.route", "loopnest.d4.unit.n1", ...);
    builds nothing. *)
val entry : string -> entry option

val decl : entry -> Workload.decl

(** The entry's workload, built on the first call in this process. *)
val build : entry -> Workload.t

(** Whether {!build} has run for this entry in this process. *)
val is_built : entry -> bool

(** All registered workloads, each built. *)
val all : unit -> Workload.t list

(** Lookup by name, building the workload on first use. *)
val find : string -> Workload.t option

val names : string list

(** Just the 12 SPEC-shaped kernels — the paper-figure grid. The
    loop-nest members are swept by their own figure
    ([bench/main.exe --loopnest]). *)
val spec_names : string list
