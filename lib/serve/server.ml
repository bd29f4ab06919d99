(* The polyflow_serve daemon core: a Unix-domain-socket listener
   speaking newline-delimited JSON (protocol.mli), one systhread per
   connection, all run requests funnelled into one Scheduler. The
   optional HTTP shim shares the same dispatch function, so both front
   ends behave identically.

   Failure discipline: a connection may only ever hurt itself. Every
   decode error becomes an error reply on that connection; an I/O error
   or EOF closes that connection; the accept loop and the scheduler
   never see the difference. The daemon degrades — it does not die. *)

module Json = Pf_json.Json
module Counters = Pf_obs.Counters
module Run_cache = Pf_report.Run_cache

type config = {
  socket_path : string;
  http_port : int option;
  jobs : int;
  cache_dir : string option;
  cache_cap : int;
  trace_store_dir : string option;
  trace_store_cap : int;
  default_timeout_ms : int;
  prewarm_windows : int list;
  allow_shutdown : bool;
  socket_mode : int;
  verbose : bool;
}

let default_config ~socket_path =
  { socket_path;
    http_port = None;
    jobs = max 1 (min 8 (Domain.recommended_domain_count () - 1));
    cache_dir = Some "_cache";
    cache_cap = 0;
    trace_store_dir = Some "_tstore";
    trace_store_cap = 0;
    default_timeout_ms = 0;
    prewarm_windows = [];
    allow_shutdown = true;
    socket_mode = 0o600;
    verbose = false;
  }

type t = {
  cfg : config;
  counters : Counters.t;
  cache : Run_cache.t option;
  sched : Scheduler.t;
  listen_fd : Unix.file_descr;
  started : float;
  stop_requested : bool Atomic.t;
  mutable http : Http.t option;
  mutable acceptor : Thread.t option;
  mutable torn_down : bool;
  teardown_mutex : Mutex.t;
  c_connections : Counters.counter;
  c_requests : Counters.counter;
  c_malformed : Counters.counter;
}

let log t fmt =
  if t.cfg.verbose then
    Printf.eprintf ("polyflow_serve: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let counters t = t.counters
let cache t = t.cache
let http_port t = Option.map Http.port t.http

let stats_json t =
  Json.Obj
    ([ ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
       ("socket", Json.String t.cfg.socket_path);
       ("timing_version", Json.String Pf_uarch.Engine.timing_version) ]
    @ Scheduler.stats_fields t.sched)

let request_stop t =
  if not (Atomic.exchange t.stop_requested true) then begin
    log t "stop requested";
    Conn.wake t.listen_fd
  end

let stop_requested t = Atomic.get t.stop_requested

let dispatch t (req : Protocol.request) : Protocol.response =
  match req with
  | Protocol.Run r ->
      Scheduler.run t.sched ~default_timeout_ms:t.cfg.default_timeout_ms r
  | Protocol.Stats id -> Protocol.Stats_reply { sr_id = id; stats = stats_json t }
  | Protocol.Ping id -> Protocol.Pong id
  | Protocol.Shutdown id ->
      if t.cfg.allow_shutdown then begin
        request_stop t;
        Protocol.Shutdown_reply id
      end
      else
        Protocol.Error_reply
          { er_id = id;
            code = Protocol.Bad_request;
            message = "shutdown over the socket is disabled" }

let handle_conn t fd =
  Counters.incr t.c_connections;
  let reader = Conn.reader fd in
  let oc = Unix.out_channel_of_descr fd in
  let respond resp =
    output_string oc (Json.to_string (Protocol.response_to_json resp));
    output_char oc '\n';
    flush oc
  in
  let malformed code message =
    Counters.incr t.c_requests;
    Counters.incr t.c_malformed;
    respond (Protocol.Error_reply { er_id = Json.Null; code; message })
  in
  (try
     let rec loop () =
       match Conn.read_line reader with
       | `Eof -> ()
       | `Too_long ->
           (* the rest of the line is never read: answer, then close *)
           malformed Protocol.Bad_request
             (Printf.sprintf "request line longer than %d bytes"
                Conn.max_request_bytes)
       | `Line line when String.trim line = "" -> loop ()
       | `Line line ->
           (match Protocol.request_of_line line with
           | Error (code, message) -> malformed code message
           | Ok req ->
               Counters.incr t.c_requests;
               respond (dispatch t req));
           loop ()
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  (try flush oc with Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let bind_socket cfg =
  (if Sys.file_exists cfg.socket_path then
     match (Unix.stat cfg.socket_path).Unix.st_kind with
     | Unix.S_SOCK ->
         (* a stale socket from a dead daemon; a live one will fail the
            bind below anyway on some systems, so probe first *)
         let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         let alive =
           match Unix.connect probe (Unix.ADDR_UNIX cfg.socket_path) with
           | () -> true
           | exception Unix.Unix_error _ -> false
         in
         Unix.close probe;
         if alive then
           invalid_arg
             (Printf.sprintf "Server.start: %s already has a live daemon"
                cfg.socket_path)
         else Unix.unlink cfg.socket_path
     | _ ->
         invalid_arg
           (Printf.sprintf "Server.start: %s exists and is not a socket"
              cfg.socket_path));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.chmod cfg.socket_path cfg.socket_mode;
  Unix.listen fd 64;
  fd

let start cfg =
  (* a client hanging up mid-reply must error the write, not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let counters = Counters.create () in
  let c_connections = Counters.make counters "connections" in
  let c_requests = Counters.make counters "requests_total" in
  let c_malformed = Counters.make counters "malformed_requests" in
  let cache =
    Option.map
      (fun dir -> Run_cache.create ~cap:cfg.cache_cap ~counters ~dir ())
      cfg.cache_dir
  in
  let trace_store =
    Option.map
      (fun dir ->
        Pf_trace.Trace_store.create ~cap:cfg.trace_store_cap ~counters ~dir ())
      cfg.trace_store_dir
  in
  let sched =
    Scheduler.create ?cache ?trace_store
      ~prewarm_windows:cfg.prewarm_windows ~jobs:cfg.jobs ~counters ()
  in
  let listen_fd = bind_socket cfg in
  let t =
    { cfg;
      counters;
      cache;
      sched;
      listen_fd;
      started = Unix.gettimeofday ();
      stop_requested = Atomic.make false;
      http = None;
      acceptor = None;
      torn_down = false;
      teardown_mutex = Mutex.create ();
      c_connections;
      c_requests;
      c_malformed }
  in
  t.http <- Option.map (fun port -> Http.start ~port ~dispatch:(dispatch t)) cfg.http_port;
  t.acceptor <-
    Some (Conn.acceptor ~stop:t.stop_requested listen_fd (handle_conn t));
  log t "listening on %s (jobs %d, cache %s%s, trace store %s)%s"
    cfg.socket_path cfg.jobs
    (match cfg.cache_dir with None -> "off" | Some d -> d)
    (if cfg.cache_cap > 0 then Printf.sprintf ", cap %d" cfg.cache_cap else "")
    (match cfg.trace_store_dir with None -> "off" | Some d -> d)
    (match http_port t with
    | Some p -> Printf.sprintf ", http 127.0.0.1:%d" p
    | None -> "");
  t

let teardown t =
  Mutex.lock t.teardown_mutex;
  let first = not t.torn_down in
  t.torn_down <- true;
  Mutex.unlock t.teardown_mutex;
  if first then begin
    Atomic.set t.stop_requested true;
    Conn.wake t.listen_fd;
    Option.iter Thread.join t.acceptor;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Option.iter Http.stop t.http;
    (* drain: every accepted request finishes (and lands in the cache)
       before the workers join *)
    Scheduler.shutdown t.sched;
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ());
    log t "stopped"
  end

let stop t =
  request_stop t;
  teardown t

let run t =
  while not (Atomic.get t.stop_requested) do
    try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  teardown t
