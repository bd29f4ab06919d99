(** A registry of named monotonic counters.

    The engine used to keep its event counts in a dozen hand-maintained
    [int ref]s; the registry replaces them with named slots so that
    tools can enumerate every counter a run produced without the engine
    exporting a new record field per count. A handle ({!counter}) is a
    single mutable cell — {!incr} costs the same as [incr] on a ref —
    so the registry adds nothing to the cycle loop.

    Counters are monotonic by construction: the only mutators are
    {!incr} and {!add} with a non-negative amount. Registration order
    is preserved by {!to_alist} and {!to_json}, so serialized dumps are
    deterministic. A registry is private to one engine run; pass a
    fresh one per simulation. *)

type t
type counter

val create : unit -> t

(** [make t name] registers a new counter at zero. Re-registering a
    [name] returns the existing counter (so a registry can be dumped
    even if two engine phases ask for the same count). *)
val make : t -> string -> counter

val incr : counter -> unit

(** @raise Invalid_argument on a negative amount. *)
val add : counter -> int -> unit

val value : counter -> int

(** All counters in registration order. *)
val to_alist : t -> (string * int) list

(** [find t name] — the current value, if registered. *)
val find : t -> string -> int option

(** One JSON object member per counter, registration order. *)
val to_json : t -> Pf_json.Json.t
