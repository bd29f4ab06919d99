(** The polyflow_serve daemon: a Unix-domain-socket listener speaking
    newline-delimited JSON (see {!Protocol} and docs/SERVING.md), one
    thread per connection, all run requests funnelled into one
    {!Scheduler} over a shared {!Pf_report.Run_cache}. The socket is
    bound with mode [0o600], so only its owner can connect.

    Lifecycle: {!start} binds the socket and returns immediately;
    {!run} blocks the calling thread until a stop is requested (by a
    [shutdown] request, {!request_stop} from a signal handler, or
    {!stop}) and then tears everything down — joins the acceptor,
    drains the scheduler so every accepted request finishes and lands
    in the cache, and unlinks the socket; this works even after the
    socket file has been deleted. *)

type config = {
  socket_path : string;  (** Unix-domain socket to bind. *)
  jobs : int;  (** Worker domains in the scheduler pool. *)
  cache_dir : string option;
      (** Run-cache directory ([None] disables caching — every request
          simulates). Created on demand, parents included. *)
  cache_cap : int;  (** LRU entry cap; [0] = unbounded. *)
  trace_store_dir : string option;
      (** Persistent trace-store directory for the window
          preparation cache ([None] prepares every window from
          scratch). Point successive daemon boots at the same
          directory to load prepared windows from disk — replies are
          byte-identical either way. *)
  trace_store_cap : int;  (** Trace-store LRU entry cap; [0] = unbounded. *)
  default_timeout_ms : int;
      (** Deadline for requests that do not carry [timeout_ms];
          [0] = wait forever. *)
  prewarm_windows : int list;
      (** Window sizes whose engine scratch each worker pre-allocates. *)
  allow_shutdown : bool;  (** Whether the [shutdown] op is honoured. *)
  verbose : bool;  (** Log lifecycle events to stderr. *)
}

(** Sensible defaults: jobs from [Domain.recommended_domain_count],
    cache in [_cache], trace store in [_tstore], no caps, no timeout,
    shutdown allowed, quiet. *)
val default_config : socket_path:string -> config

type t

(** Bind the socket (refusing to clobber a live daemon; silently
    replacing a stale socket file), spawn the scheduler pool and the
    acceptor. Ignores SIGPIPE.
    @raise Invalid_argument if the socket path is held by a live daemon
    or by a non-socket file.
    @raise Unix.Unix_error if binding fails. *)
val start : config -> t

(** Block until a stop is requested, then tear down (idempotent). *)
val run : t -> unit

(** Request a stop without waiting for teardown — safe from a signal
    handler's thread. {!run} observes it and tears down. *)
val request_stop : t -> unit

(** True once a stop has been requested. *)
val stop_requested : t -> bool

(** {!request_stop} plus immediate teardown; for embedding in tests. *)
val stop : t -> unit

(** Serve one already-decoded request — the same dispatch the socket
    uses; exposed for in-process tests. *)
val dispatch : t -> Protocol.request -> Protocol.response
