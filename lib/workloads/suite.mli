(** The benchmark suite: one workload per SPEC2000 integer benchmark the
    paper evaluates, in the paper's figure order, followed by the
    registered members of the parameterized loop-nest family
    ({!Loopnest}).

    Sharing contract: each workload is built once, when this module is
    initialised at program start-up, and that one immutable value serves
    every caller in every domain and thread — {!find} returns the same
    physical value on every call, and it is the matching element of
    {!all}. This is what lets the trace store's fingerprint memo, keyed
    on the physical program and setup, hit across calls. It requires
    each workload's [setup] to be deterministic and to touch only the
    machine it is given (see {!Workload.t}). *)

val all : unit -> Workload.t list

(** Lookup by name ("twolf", "vpr.route", "loopnest.d4.unit.n1", ...). *)
val find : string -> Workload.t option

val names : string list

(** Just the 12 SPEC-shaped kernels — the paper-figure grid. The
    loop-nest members are swept by their own figure
    ([bench/main.exe --loopnest]). *)
val spec_names : string list
