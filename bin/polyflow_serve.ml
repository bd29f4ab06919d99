(* polyflow_serve: the simulation-as-a-service daemon.

   Binds a Unix-domain socket, speaks the newline-delimited JSON
   protocol of docs/SERVING.md, serves repeated runs from the sharded
   LRU run cache and schedules misses on a persistent domain pool with
   warm engine scratch. Window preparation goes through the persistent
   trace store (--trace-store), so a daemon restarted over a populated
   store loads its windows from disk instead of preparing them again.
   docs/SERVING.md has a python client for the socket.

   Examples:
     polyflow_serve --socket /tmp/polyflow.sock
     polyflow_serve --socket /tmp/polyflow.sock --jobs 4 --cache-cap 256
     polyflow_serve --socket /tmp/polyflow.sock \
       --prewarm 4000,30000 --timeout-ms 60000 *)

let parse_prewarm s =
  if String.trim s = "" then Ok []
  else
    try
      Ok
        (List.map
           (fun w ->
             let n = int_of_string (String.trim w) in
             if n <= 0 then failwith "non-positive";
             n)
           (String.split_on_char ',' s))
    with _ -> Error (Printf.sprintf "bad --prewarm %S: expected N[,N...]" s)

let serve socket_path jobs cache_dir no_cache cache_cap
    trace_store_dir no_trace_store trace_store_cap timeout_ms prewarm
    no_shutdown verbose =
  match parse_prewarm prewarm with
  | Error m -> `Error (false, m)
  | Ok prewarm_windows -> (
      if jobs < 1 then `Error (false, "--jobs must be at least 1")
      else if cache_cap < 0 then `Error (false, "--cache-cap must be >= 0")
      else if trace_store_cap < 0 then
        `Error (false, "--trace-store-cap must be >= 0")
      else
        let cfg =
          { (Pf_serve.Server.default_config ~socket_path) with
            jobs;
            cache_dir = (if no_cache then None else Some cache_dir);
            cache_cap;
            trace_store_dir =
              (if no_trace_store then None else Some trace_store_dir);
            trace_store_cap;
            default_timeout_ms = timeout_ms;
            prewarm_windows;
            allow_shutdown = not no_shutdown;
            verbose }
        in
        match Pf_serve.Server.start cfg with
        | exception Invalid_argument m -> `Error (false, m)
        | exception Unix.Unix_error (e, fn, arg) ->
            `Error
              ( false,
                Printf.sprintf "cannot bind %s: %s (%s %s)" socket_path
                  (Unix.error_message e) fn arg )
        | t ->
            let stop _ = Pf_serve.Server.request_stop t in
            Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
            Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
            (* scripts (CI's serve-smoke job) wait for this line before
               sending requests *)
            Printf.printf "polyflow_serve: ready on %s\n%!" socket_path;
            Pf_serve.Server.run t;
            Printf.printf "polyflow_serve: stopped\n%!";
            `Ok ())

open Cmdliner

let socket_t =
  Arg.(
    value
    & opt string "polyflow.sock"
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on.")

let jobs_t =
  Arg.(
    value
    & opt int (max 1 (min 8 (Domain.recommended_domain_count () - 1)))
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains in the simulation pool.")

let cache_dir_t =
  Arg.(
    value
    & opt string "_cache"
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Run-cache directory (created on demand, parents included; \
           entries are sharded by digest prefix).")

let no_cache_t =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Disable the run cache entirely; every request simulates.")

let cache_cap_t =
  Arg.(
    value & opt int 0
    & info [ "cache-cap" ] ~docv:"N"
        ~doc:
          "Evict least-recently-used cache entries beyond $(docv) \
           (0 = unbounded).")

let trace_store_dir_t =
  Arg.(
    value
    & opt string "_tstore"
    & info [ "trace-store" ] ~docv:"DIR"
        ~doc:
          "Persistent trace-store directory for the window preparation \
           cache (created on demand). Point successive boots at the same \
           directory and cold windows load from disk instead of being \
           prepared again; replies are byte-identical either way.")

let no_trace_store_t =
  Arg.(
    value & flag
    & info [ "no-trace-store" ]
        ~doc:"Disable the trace store; every window prepares from scratch.")

let trace_store_cap_t =
  Arg.(
    value & opt int 0
    & info [ "trace-store-cap" ] ~docv:"N"
        ~doc:
          "Evict least-recently-used trace-store entries beyond $(docv)            (0 = unbounded).")

let timeout_ms_t =
  Arg.(
    value & opt int 0
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:
          "Default per-request deadline for requests that do not carry \
           their own timeout_ms (0 = wait forever). A timed-out request \
           gets a timeout error; its simulation still finishes and lands \
           in the cache.")

let prewarm_t =
  Arg.(
    value & opt string ""
    & info [ "prewarm" ] ~docv:"N[,N...]"
        ~doc:
          "Window sizes whose engine scratch every worker pre-allocates \
           at boot, so the first request of each size skips the cold \
           allocation.")

let no_shutdown_t =
  Arg.(
    value & flag
    & info [ "no-shutdown" ]
        ~doc:
          "Refuse the shutdown op over the socket; stop with SIGINT or \
           SIGTERM only.")

let verbose_t =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log lifecycle events.")

let cmd =
  Cmd.v
    (Cmd.info "polyflow_serve"
       ~doc:"PolyFlow simulation-as-a-service daemon (docs/SERVING.md)")
    Term.(
      ret
        (const serve $ socket_t $ jobs_t $ cache_dir_t $ no_cache_t
       $ cache_cap_t $ trace_store_dir_t $ no_trace_store_t
       $ trace_store_cap_t $ timeout_ms_t $ prewarm_t $ no_shutdown_t
       $ verbose_t))

let () = exit (Cmd.eval cmd)
