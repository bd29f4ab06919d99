(* Request scheduling for polyflow_serve. See scheduler.mli for the
   contract; the notes here are about the concurrency structure.

   Three kinds of parties touch a scheduler:

   - connection threads (systhreads in the accepting domain) call
     [run]: resolve the request ([Sweep.resolve]), try the cache, then
     either join an in-flight identical job or enqueue a fresh one and
     wait;
   - worker domains pop one job at a time, take its prepared window
     from the sweep's slot ([Sweep.acquire]), so same-window jobs on
     any number of workers share one preparation, and keep their
     per-domain [Engine.Scratch] pools warm across requests (that reuse
     is why the pool is persistent domains rather than
     domain-per-request);
   - the owner eventually calls [shutdown], which lets workers drain
     the queue and then join.

   Everything mutable here is guarded by [t.mutex], and each window by
   its slot. Only a request's wait for its job polls (1 ms sleeps):
   stdlib [Condition] has no timed wait, per-request deadlines need
   one, and the wake latency only applies to requests that are paying
   a simulation (or a coalesced join) anyway — cache hits never wait.
   Workers, and callers waiting for a window, park on condition
   variables, so an idle pool burns no cycles. *)

module Json = Pf_json.Json
module Sweep = Pf_report.Sweep
module Run_cache = Pf_report.Run_cache
module Trace_store = Pf_trace.Trace_store
module Counters = Pf_obs.Counters

(* a successful outcome remembers whether it was simulated or served by
   the in-queue cache re-check, so the reply's [cached] flag is truthful
   even for jobs that raced an identical store *)
type job = {
  j_resolved : Sweep.resolved;
  j_no_cache : bool;
  mutable j_outcome :
    (Sweep.run * bool, Protocol.error_code * string) result option;
}

type t = {
  jobs : int;
  cache : Run_cache.t option;
  trace_store : Trace_store.t option;
  counters : Counters.t;
  c_run_requests : Counters.counter;
  c_coalesced : Counters.counter;
  c_simulations : Counters.counter;
  c_prep_builds : Counters.counter;
  c_prep_reuses : Counters.counter;
  c_timeouts : Counters.counter;
  mutex : Mutex.t;
  work : Condition.t;
  queue : job Queue.t;
  pending : (string, job) Hashtbl.t;
  slots : (string * int, Sweep.slot) Hashtbl.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  mutable prepare_s : float; (* wall seconds spent in prep builds *)
}

(* ---- request resolution ----

   A request wrong in several ways gets the first error of: workload,
   policy, config, window. So a bad policy or config still goes through
   [Sweep.resolve], with a stand-in, to learn whether the workload is
   known. *)

let resolve (r : Protocol.run_request) =
  let policy = Pf_core.Policy.of_string r.policy in
  let config =
    try Ok (Option.map Pf_report.Codec.config_of_json r.config)
    with Json.Decode_error msg -> Error msg
  in
  let spec =
    Sweep.spec ?label:r.label ?window:r.window
      ?config:(Result.value config ~default:None)
      r.workload
      (Result.value policy ~default:Pf_core.Policy.No_spawn)
  in
  match (Sweep.resolve spec, policy, config) with
  | Error Sweep.Unknown_workload, _, _ ->
      Error
        ( Protocol.Unknown_workload,
          Printf.sprintf "unknown workload %S (known: %s)" r.workload
            (String.concat ", " Pf_workloads.Suite.names) )
  | _, Error msg, _ -> Error (Protocol.Unknown_policy, msg)
  | _, _, Error msg | Error (Sweep.Bad_config msg), _, _ ->
      Error (Protocol.Bad_request, Printf.sprintf "bad \"config\": %s" msg)
  | Error (Sweep.Non_positive_window w), _, _ ->
      Error
        ( Protocol.Bad_request,
          Printf.sprintf "\"window\" must be positive (got %d)" w )
  | Ok res, Ok _, Ok _ -> Ok res

(* ---- prepared-window sharing ----

   One slot per distinct (workload, window), never released:
   preparation dominates cold latency, and the prepared window is
   immutable, so any number of worker domains may simulate from it
   concurrently (docs/ENGINE.md). *)

let acquire_prep t (r : Sweep.resolved) =
  let key = (r.r_spec.workload, r.r_window) in
  let slot =
    Mutex.protect t.mutex (fun () ->
        if not (Hashtbl.mem t.slots key) then
          Hashtbl.add t.slots key
            (Sweep.window_slot r.r_workload ~window:r.r_window);
        Hashtbl.find t.slots key)
  in
  let prep, built = Sweep.acquire ?trace_store:t.trace_store slot in
  Mutex.protect t.mutex (fun () ->
      match built with
      | Some s ->
          Counters.incr t.c_prep_builds;
          t.prepare_s <- t.prepare_s +. s
      | None -> Counters.incr t.c_prep_reuses);
  prep

(* ---- workers ---- *)

let cache_find t ~no_cache (r : Sweep.resolved) =
  match t.cache with
  | Some c when not no_cache -> Sweep.cached c r
  | _ -> None

(* An identical request may have stored the job's result while it sat
   in the queue; serving that preserves byte-identity and skips work.
   Otherwise the job takes its window from the slot and simulates, and a
   failure answers only this job. A later [no_cache] job for the same
   digest replaces the pending entry, so a finishing job removes the
   entry only while it is still its own. *)
let execute t job =
  let outcome =
    match cache_find t ~no_cache:job.j_no_cache job.j_resolved with
    | Some run -> Ok (run, true)
    | None -> (
        match
          Sweep.simulate_run ?cache:t.cache job.j_resolved
            (acquire_prep t job.j_resolved)
        with
        | run ->
            Counters.incr t.c_simulations;
            Ok (run, false)
        | exception e -> Error (Protocol.Internal, Printexc.to_string e))
  in
  let digest = job.j_resolved.r_digest in
  Mutex.protect t.mutex (fun () ->
      job.j_outcome <- Some outcome;
      match Hashtbl.find_opt t.pending digest with
      | Some j when j == job -> Hashtbl.remove t.pending digest
      | _ -> ())

let worker_loop t prewarm_windows () =
  List.iter
    (fun window -> Pf_uarch.Engine.prewarm_scratch ~window)
    prewarm_windows;
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work t.mutex
    done;
    let job = Queue.take_opt t.queue in
    Mutex.unlock t.mutex;
    match job with
    | None -> () (* stopping, and the queue is drained *)
    | Some job ->
        execute t job;
        loop ()
  in
  loop ()

let create ?cache ?trace_store ?(prewarm_windows = []) ~jobs ~counters () =
  if jobs < 1 then invalid_arg "Scheduler.create: jobs < 1";
  let t =
    { jobs;
      cache;
      trace_store;
      counters;
      c_run_requests = Counters.make counters "run_requests";
      c_coalesced = Counters.make counters "coalesced_requests";
      c_simulations = Counters.make counters "simulations";
      c_prep_builds = Counters.make counters "prep_builds";
      c_prep_reuses = Counters.make counters "prep_reuses";
      c_timeouts = Counters.make counters "request_timeouts";
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      pending = Hashtbl.create 64;
      slots = Hashtbl.create 16;
      stopping = false;
      workers = [];
      prepare_s = 0. }
  in
  t.workers <-
    List.init jobs (fun _ -> Domain.spawn (worker_loop t prewarm_windows));
  t

(* ---- the client-facing entry point ---- *)

let error id code message =
  Protocol.Error_reply { er_id = id; code; message }

let reply (r : Protocol.run_request) ~t0 ~cached ~coalesced ~digest run =
  Protocol.Run_reply
    { rr_id = r.id;
      cached;
      coalesced;
      digest;
      wall_ms = (Unix.gettimeofday () -. t0) *. 1000.;
      run = Sweep.run_to_json run }

(* Join the pending job for [digest] or enqueue a fresh one; never
   coalesces a [no_cache] request onto an existing job (it asked for its
   own simulation), but its job is still published for others to join. *)
let join_or_enqueue t ~no_cache (res : Sweep.resolved) =
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    None
  end
  else begin
    let existing =
      if no_cache then None else Hashtbl.find_opt t.pending res.r_digest
    in
    let job, coalesced =
      match existing with
      | Some job -> (job, true)
      | None ->
          let job =
            { j_resolved = res; j_no_cache = no_cache; j_outcome = None }
          in
          Hashtbl.replace t.pending res.r_digest job;
          Queue.push job t.queue;
          Condition.signal t.work;
          (job, false)
    in
    if coalesced then Counters.incr t.c_coalesced;
    Mutex.unlock t.mutex;
    Some (job, coalesced)
  end

let run t ?(default_timeout_ms = 0) (r : Protocol.run_request) =
  let t0 = Unix.gettimeofday () in
  Counters.incr t.c_run_requests;
  match resolve r with
  | Error (code, message) -> error r.id code message
  | Ok res -> (
      match cache_find t ~no_cache:r.no_cache res with
      | Some run ->
          reply r ~t0 ~cached:true ~coalesced:false ~digest:res.r_digest run
      | None -> (
          match join_or_enqueue t ~no_cache:r.no_cache res with
          | None ->
              error r.id Protocol.Shutting_down
                "daemon is shutting down; request not accepted"
          | Some (job, coalesced) ->
              let timeout_ms =
                Option.value r.timeout_ms ~default:default_timeout_ms
              in
              let deadline =
                if timeout_ms <= 0 then infinity
                else t0 +. (float_of_int timeout_ms /. 1000.)
              in
              let rec wait () =
                Mutex.lock t.mutex;
                let outcome = job.j_outcome in
                Mutex.unlock t.mutex;
                match outcome with
                | Some (Ok (run, from_cache)) ->
                    reply r ~t0 ~cached:from_cache ~coalesced
                      ~digest:res.r_digest run
                | Some (Error (code, message)) -> error r.id code message
                | None ->
                    if Unix.gettimeofday () > deadline then begin
                      Counters.incr t.c_timeouts;
                      error r.id Protocol.Timeout
                        (Printf.sprintf
                           "no result within %d ms (the simulation keeps \
                            running and will be served from cache)"
                           timeout_ms)
                    end
                    else begin
                      Unix.sleepf 0.001;
                      wait ()
                    end
              in
              wait ()))

(* ---- introspection and shutdown ---- *)

let stats_fields t =
  Mutex.lock t.mutex;
  let inflight = Hashtbl.length t.pending in
  let queued = Queue.length t.queue in
  let prepared = Counters.value t.c_prep_builds in
  let prepare_ms = 1000. *. t.prepare_s in
  Mutex.unlock t.mutex;
  [ ("jobs", Json.Int t.jobs);
    ("inflight", Json.Int inflight);
    ("queued", Json.Int queued);
    ("prepared_windows", Json.Int prepared);
    ("prepare_ms", Json.Float prepare_ms);
    ( "cache",
      match t.cache with
      | None -> Json.Null
      | Some c ->
          let s = Run_cache.stats c in
          Json.Obj
            [ ("dir", Json.String (Run_cache.dir c));
              ("cap", Json.Int (Run_cache.cap c));
              ("entries", Json.Int s.Run_cache.entries);
              ("hits", Json.Int s.Run_cache.hits);
              ("misses", Json.Int s.Run_cache.misses);
              ("stores", Json.Int s.Run_cache.stores);
              ("evictions", Json.Int s.Run_cache.evictions) ] );
    ( "trace_store",
      match t.trace_store with
      | None -> Json.Null
      | Some ts ->
          let s = Trace_store.stats ts in
          Json.Obj
            [ ("dir", Json.String (Trace_store.dir ts));
              ("cap", Json.Int (Trace_store.cap ts));
              ("entries", Json.Int s.Trace_store.entries);
              ("hits", Json.Int s.Trace_store.hits);
              ("misses", Json.Int s.Trace_store.misses);
              ("stores", Json.Int s.Trace_store.stores);
              ("evictions", Json.Int s.Trace_store.evictions);
              ("bytes", Json.Int s.Trace_store.bytes) ] );
    ("counters", Counters.to_json t.counters) ]

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []
