(** Plumbing shared by the benchmark harnesses: wall-clock timing, GC
    allocation deltas, order statistics, artifact writing with a carried
    history, and scratch-directory handling. *)

(** {1 Timing} *)

(** [time f] runs [f ()] and returns its value with the wall seconds it
    took. *)
val time : (unit -> 'a) -> 'a * float

(** [alloc_words f] runs [f ()] and returns its value with the words it
    freshly allocated (minor plus direct-to-major, promotions backed
    out), from [Gc.quick_stat] deltas on the calling domain. *)
val alloc_words : (unit -> 'a) -> 'a * float

(** {1 Order statistics} *)

(** [percentile sorted p] is the nearest-rank [p]-th percentile of an
    ascending array; [0.] when empty. *)
val percentile : float array -> float -> float

(** Median of an unsorted list (nearest rank); [0.] when empty. *)
val median : float list -> float

(** [quartiles l] is [(q1, median, q3)] by the exclusive method that
    Python's [statistics.quantiles(l, n=4)] uses. A single value is its
    own quartiles; [(0., 0., 0.)] when empty. *)
val quartiles : float list -> float * float * float

(** {1 Artifacts} *)

(** Write [json] pretty-printed, with a trailing newline. *)
val save : string -> Pf_json.Json.t -> unit

(** [with_history path ~entries doc] appends [entries] to the
    ["history"] list carried over from the artifact currently at
    [path] (none if it is missing or unreadable) and returns [doc] with
    that list as its last member. *)
val with_history :
  string -> entries:Pf_json.Json.t list -> Pf_json.Json.t -> Pf_json.Json.t

(** Contents of a file.
    @raise Sys_error if it cannot be read. *)
val read_file : string -> string

(** {1 Child processes} *)

(** [spawn prog args stdin stdout stderr] is [Unix.create_process],
    remembering the child until {!reap} collects it. *)
val spawn :
  string -> string array -> Unix.file_descr -> Unix.file_descr -> Unix.file_descr -> int

(** [reap ?nohang pid] waits for a child started by {!spawn} (retrying
    on [EINTR]); [None] when [nohang] and it is still running. *)
val reap : ?nohang:bool -> int -> Unix.process_status option

(** Kill and reap every child {!spawn} started that is still running:
    the exit path of a harness that must leave no process behind. *)
val kill_children : unit -> unit

(** {1 Scratch directories} *)

(** [rm_rf path] deletes a file or a directory tree; missing paths are
    ignored. *)
val rm_rf : string -> unit

(** [temp_dir ~base prefix] creates and returns a fresh directory
    [base/prefix_<pid>_<n>] ([mkdir -p] for [base]). *)
val temp_dir : base:string -> string -> string
