(* serve-mixed: the real polyflow_serve daemon as a child process under
   open-loop load from one single-threaded generator. Arrivals are
   seeded Poisson at [rate] req/s, pipelined over two connections with
   Unix.select, and every request is timed from its due time, so a
   stall is charged to the requests queued behind it. The mix:
   80% hit set (12 SPEC x {superscalar, postdoms, rec_pred} at window
   4000, filled at set-up); 15% fresh postdoms configs on hit-set
   windows (unique max_spawn_distance and label, so they reuse prepared
   windows and can join lockstep batches); 5% fresh windows (4000 + k),
   which prepare cold. Requests are encoded with Pf_serve.Protocol, the
   codec the daemon itself decodes with. *)

open Pf_uarch
module B = Pf_bench_support.Bench_support
module Json = Pf_json.Json
module Sweep = Pf_report.Sweep
module Policy = Pf_core.Policy

(* arrivals per second: far below the ~500 req/s at which backlog grows
   (pfbench/README.md, Steadiness) *)
let rate = 50.
let slice_s = 5.
let drain_s = 30.
let timeout_ms = 20_000

type kind = Hit | Fresh_config | Fresh_window

type req = {
  idx : int;
  kind : kind;
  spec : Sweep.spec;
  line : string;
  due : float; (* seconds from the start of the slice *)
  mutable sent : float;
  mutable replied : float; (* nan until answered *)
  mutable reply : string;
}

let make_req idx kind spec due =
  { idx; kind; spec;
    line = Json.to_string (Pf_serve.Protocol.request_to_json (Attribution.request_of_spec idx spec));
    due; sent = nan; replied = nan; reply = "" }

(* One slice of arrivals: a Poisson process conditioned on its count,
   i.e. rate x seconds arrival times drawn uniformly and sorted, with
   the mix dealt from shuffled decks in exact proportions. Each kind
   deals its specs from its own deck, so every hit-set spec gets the
   same number of hits (to within one) and every workload the same
   number of fresh specs. The seed moves every arrival and every
   choice, but not how many requests of each kind and workload a slice
   carries, so fresh windows (and the memory they keep) do not vary
   from seed to seed. [fresh] numbers the fresh specs across the
   daemon's life so every label and window stays unique. *)
let schedule ~st ~seconds ~window ~hit_set ~next_idx ~fresh =
  let n = int_of_float (Float.round (rate *. seconds)) in
  let deck items k =
    let a = Array.of_list items in
    ref (Grid.shuffle st (List.init k (fun i -> a.(i mod Array.length a))))
  in
  let deal d =
    match !d with
    | x :: rest ->
        d := rest;
        x
    | [] -> assert false
  in
  let n_config = n * 15 / 100 and n_window = n * 5 / 100 in
  let n_hit = n - n_config - n_window in
  let kinds =
    deck
      (List.init n (fun i ->
           if i < n_config then Fresh_config
           else if i < n_config + n_window then Fresh_window
           else Hit))
      n
  in
  let hits = deck hit_set n_hit in
  let config_names = deck Pf_workloads.Suite.spec_names n_config in
  let window_names = deck Pf_workloads.Suite.spec_names n_window in
  let policies = deck Grid.hit_policies n_window in
  let times = List.sort compare (List.init n (fun _ -> Random.State.float st seconds)) in
  List.map
    (fun t ->
      let kind = deal kinds in
      let spec =
        match kind with
        | Hit -> deal hits
        | Fresh_config ->
            incr fresh;
            Sweep.spec ~window (deal config_names) Policy.Postdoms
              ~label:(Printf.sprintf "postdoms@fresh=%d" !fresh)
              ~config:{ Config.polyflow with Config.max_spawn_distance = 1024 + !fresh }
        | Fresh_window ->
            incr fresh;
            let window = window + !fresh and policy = deal policies in
            Sweep.spec ~window (deal window_names) policy
              ~label:(Printf.sprintf "%s@win=%d" (Policy.name policy) window)
      in
      incr next_idx;
      make_req !next_idx kind spec t)
    times

(* ---- the generator ---- *)

type conn = {
  fd : Unix.file_descr;
  pending : req Queue.t;
  mutable partial : string; (* reply bytes short of a newline *)
  mutable out : string;     (* request bytes the socket has not taken *)
  mutable closed : bool;
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; pending = Queue.create (); partial = ""; out = ""; closed = false }

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* Sends each request at its due time on the connection with fewer
   replies outstanding and records send and reply times; the daemon
   answers one connection's requests in order. Sockets are
   non-blocking, so a daemon that stops reading can never stall the
   reads that would let it continue. Returns the absolute start of the
   slice. *)
let drive ~socket reqs =
  let conns = [| connect socket; connect socket |] in
  Array.iter (fun c -> Unix.set_nonblock c.fd) conns;
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let t0 = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. t0 in
  let next = ref 0 and outstanding = ref 0 and turn = ref 0 in
  let chunk = Bytes.create 65536 in
  let read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> c.closed <- true
    | k ->
        let t = now () in
        let s = c.partial ^ Bytes.sub_string chunk 0 k in
        let rec lines start =
          match String.index_from_opt s start '\n' with
          | None -> start
          | Some i ->
              (match Queue.take_opt c.pending with
              | Some r ->
                  r.replied <- t;
                  r.reply <- String.sub s start (i - start);
                  decr outstanding
              | None -> ());
              lines (i + 1)
        in
        let rest = lines 0 in
        c.partial <- String.sub s rest (String.length s - rest)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error _ -> c.closed <- true
  in
  let flush c =
    match Unix.write_substring c.fd c.out 0 (String.length c.out) with
    | k -> c.out <- String.sub c.out k (String.length c.out - k)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.closed <- true
  in
  let send r =
    let live = List.filter (fun c -> not c.closed) (Array.to_list conns) in
    match
      List.sort
        (fun a b -> compare (Queue.length a.pending) (Queue.length b.pending))
        (if !turn = 0 then live else List.rev live)
    with
    | [] -> ()
    | c :: _ ->
        turn := 1 - !turn;
        r.sent <- now ();
        c.out <- c.out ^ r.line ^ "\n";
        Queue.push r c.pending;
        incr outstanding;
        flush c
  in
  let deadline = ref infinity in
  let rec loop () =
    let t = now () in
    while !next < n && reqs.(!next).due <= t do
      send reqs.(!next);
      incr next
    done;
    if !next >= n && !deadline = infinity then deadline := t +. drain_s;
    let live = List.filter (fun c -> not c.closed) (Array.to_list conns) in
    let waiting = List.filter (fun c -> not (Queue.is_empty c.pending)) live in
    if (!next < n || (!outstanding > 0 && waiting <> [])) && t < !deadline then begin
      let timeout = if !next < n then reqs.(!next).due -. t else !deadline -. t in
      let writing = List.filter (fun c -> c.out <> "") live in
      let readable, writable =
        match
          Unix.select
            (List.map (fun c -> c.fd) waiting)
            (List.map (fun c -> c.fd) writing)
            [] (max 0. timeout)
        with
        | r, w, _ -> (r, w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      in
      List.iter (fun c -> if List.mem c.fd writable then flush c) writing;
      List.iter (fun c -> if List.mem c.fd readable then read c) waiting;
      loop ()
    end
  in
  loop ();
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  t0

let rpc socket json =
  let c = connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    (fun () ->
      let line = Json.to_string json ^ "\n" in
      write_all c.fd line 0 (String.length line);
      input_line (Unix.in_channel_of_descr c.fd) |> Json.of_string)

(* ---- the daemon ---- *)

type daemon = { pid : int; ready : in_channel; dir : string; socket : string }

let serve_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/polyflow_serve.exe"

let boot ~work ~jobs ~window =
  let dir = B.temp_dir ~base:work "daemon" in
  let socket = Filename.concat dir "s.sock" in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let exe = serve_exe () in
  let pid =
    B.spawn exe
      [| exe; "--socket"; socket; "--jobs"; string_of_int jobs;
         "--cache-dir"; Filename.concat dir "cache";
         "--trace-store"; Filename.concat dir "tstore";
         "--prewarm"; string_of_int window;
         "--timeout-ms"; string_of_int timeout_ms |]
      Unix.stdin wr log
  in
  Unix.close wr;
  Unix.close log;
  let d = { pid; ready = Unix.in_channel_of_descr rd; dir; socket } in
  (* the daemon prints this line once it accepts connections *)
  match input_line d.ready with
  | l when String.length l >= 24 && String.sub l 0 24 = "polyflow_serve: ready on" -> d
  | _ | (exception End_of_file) -> failwith ("polyflow_serve did not start; see " ^ dir)

let proc_cpu_s pid =
  let s = B.read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  match String.split_on_char ' ' after with
  | _ :: rest ->
      (* utime and stime are fields 14 and 15, in clock ticks (USER_HZ = 100) *)
      let f i = float_of_string (List.nth rest i) in
      (f 10 +. f 11) /. 100.
  | [] -> 0.

let stop d =
  (try ignore (rpc d.socket (Json.Obj [ ("op", Json.String "shutdown") ]))
   with Unix.Unix_error _ | End_of_file | Json.Parse_error _ -> ());
  let t0 = Unix.gettimeofday () in
  let rec reap () =
    match B.reap ~nohang:true d.pid with
    | None when Unix.gettimeofday () -. t0 < drain_s ->
        Unix.sleepf 0.01;
        reap ()
    | None ->
        Unix.kill d.pid Sys.sigkill;
        ignore (B.reap d.pid)
    | Some _ -> ()
  in
  reap ();
  close_in_noerr d.ready

(* ---- accounting ---- *)

type answered = {
  r : req;
  latency_ms : float;
  late_ms : float;
  server_ms : float;
  cached : bool;
  run : Json.t;
}

(* a request fails when it is unanswered, answered with an error or with
   someone else's id, or (hit set) with a result whose digest differs *)
let answer ~check r =
  if Float.is_nan r.replied then None
  else
    match Json.of_string r.reply with
    | exception Json.Parse_error _ -> None
    | j ->
        let ok =
          Json.member_opt "status" j = Some (Json.String "ok")
          && Json.member_opt "id" j = Some (Json.Int r.idx)
        in
        if not ok then None
        else
          let run = Json.member "run" j in
          if r.kind = Hit && check [ (Grid.spec_key r.spec, Check.reply_run_digest run) ] > 0
          then None
          else
            Some
              { r;
                latency_ms = 1000. *. (r.replied -. r.due);
                late_ms = 1000. *. (r.sent -. r.due);
                server_ms = Json.to_float (Json.member "wall_ms" j);
                cached = Json.to_bool (Json.member "cached" j);
                run }

let p50 = B.median
let p99 = Attribution.p99
let ratio = Attribution.ratio

(* the mean over hit-set specs of each one's fastest reply *)
let hit_floor_ms answered =
  let best = Hashtbl.create 64 in
  List.iter
    (fun a ->
      if a.r.kind = Hit then
        let k = Grid.spec_key a.r.spec in
        match Hashtbl.find_opt best k with
        | Some v when v <= a.latency_ms -> ()
        | _ -> Hashtbl.replace best k a.latency_ms)
    answered;
  Hashtbl.fold (fun _ v acc -> acc +. v) best 0. /. float_of_int (max 1 (Hashtbl.length best))

type slice = {
  answered : answered list;
  t0 : float;
  wall_s : float;
  cpu_s : float;
  counters : Json.t * Json.t; (* daemon stats before and after *)
}

let stats d = Json.member "stats" (rpc d.socket (Json.Obj [ ("op", Json.String "stats") ]))

let run_slice ~d ~check ~account reqs =
  let s0 = stats d and cpu0 = proc_cpu_s d.pid in
  let t0 = drive ~socket:d.socket reqs in
  let wall_s = Unix.gettimeofday () -. t0 in
  let cpu_s = proc_cpu_s d.pid -. cpu0 in
  let answered = account (List.map (fun r -> (r, answer ~check r)) reqs) in
  { answered; t0; wall_s; cpu_s; counters = (s0, stats d) }

let counter_delta (a, b) name =
  let get s =
    match Json.member_opt name (Json.member "counters" s) with
    | Some v -> float_of_int (Json.to_int v)
    | None -> 0.
  in
  get b -. get a

(* client-side spans of one traced request: generator lateness, the
   server's own wall (placed mid-flight), and the socket either side *)
let request_spans buf p =
  List.iter
    (fun a ->
      let at t = p.t0 +. t in
      let root =
        Span.add buf ~spec:a.r.idx "request" ~start:(at a.r.due) ~stop:(at a.r.replied)
      in
      let flight = a.r.replied -. a.r.sent in
      let server = min flight (a.server_ms /. 1000.) in
      let wire = (flight -. server) /. 2. in
      let s1 = a.r.sent +. wire in
      ignore (Span.add buf ~parent:root "gen.late" ~start:(at a.r.due) ~stop:(at a.r.sent));
      ignore (Span.add buf ~parent:root "serve.wire" ~start:(at a.r.sent) ~stop:(at s1));
      ignore (Span.add buf ~parent:root "serve.server" ~start:(at s1) ~stop:(at (s1 +. server)));
      ignore
        (Span.add buf ~parent:root "serve.wire" ~start:(at (s1 +. server)) ~stop:(at a.r.replied)))
    p.answered

let run ~work ~jobs ~seed ~seconds ~window ~setups ~traced ~check =
  let st = Random.State.make [| seed |] in
  let hit_set = Grid.hit_set ~window () in
  let attempted = ref 0 and failed = ref 0 in
  let account pairs =
    List.filter_map
      (fun (_, a) ->
        incr attempted;
        if a = None then incr failed;
        a)
      pairs
  in
  let next_idx = ref 0 and fresh = ref 0 in
  let boot_and_fill () =
    let t0 = Unix.gettimeofday () in
    let d = boot ~work ~jobs ~window in
    let reqs =
      List.map
        (fun s ->
          incr next_idx;
          make_req !next_idx Hit s 0.)
        hit_set
    in
    ignore (drive ~socket:d.socket reqs);
    let setup_s = Unix.gettimeofday () -. t0 in
    let filled = account (List.map (fun r -> (r, answer ~check r)) reqs) in
    (d, setup_s, filled)
  in
  (* Set-up is sampled [setups] times and its median reported: the
     daemon that carries the load, then one more daemon booted, filled
     and stopped after each of the first [setups - 1] slices, while the
     loaded one is idle. Spreading the samples over the run keeps them
     from all seeing one moment of a shared host whose speed drifts. *)
  let d, first_setup, filled = boot_and_fill () in
  let setup_samples = ref [ first_setup ] in
  let extra_setup () =
    let d, s, _ = boot_and_fill () in
    stop d;
    B.rm_rf d.dir;
    setup_samples := s :: !setup_samples
  in
  (* The measured time runs as consecutive slices of about [slice_s],
     each drained before the next starts, so set-up samples can fall
     between them; BENCH_pfbench.json keeps each slice's latencies. A
     traced run applies the same load. *)
  let slices, rss_kb =
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let n = max 1 (int_of_float (Float.round (seconds /. slice_s))) in
        let slices =
          List.init n (fun i ->
              let p =
                run_slice ~d ~check ~account
                  (schedule ~st ~seconds:(seconds /. float_of_int n) ~window ~hit_set
                     ~next_idx ~fresh)
              in
              if i < setups - 1 then extra_setup ();
              p)
        in
        (slices, Sweeps.vm_hwm_kb (string_of_int d.pid)))
  in
  let setup_samples = List.rev !setup_samples in
  (* the daemon's stores, reopened: the sweep layer's set-up cost *)
  let (_ : Pf_report.Run_cache.t * Pf_trace.Trace_store.t), reopen_s =
    B.time (fun () ->
        ( Pf_report.Run_cache.create ~dir:(Filename.concat d.dir "cache") (),
          Pf_trace.Trace_store.create ~dir:(Filename.concat d.dir "tstore") () ))
  in
  B.rm_rf d.dir;
  (* re-simulate a seeded 10% sample of the fresh specs, solo and
     uncached, and hold the served bytes to it *)
  let fresh_answers =
    List.filter
      (fun a -> a.r.kind <> Hit && Random.State.float st 1. < 0.1)
      (List.concat_map (fun p -> p.answered) slices)
  in
  let resim, _ =
    Sweep.execute ~jobs ~batch:1 (List.map (fun a -> a.r.spec) fresh_answers)
  in
  List.iter2
    (fun a r -> if Check.reply_run_digest a.run <> Check.run_digest r then incr failed)
    fresh_answers resim;
  let lat_of l = List.map (fun a -> a.latency_ms) l in
  let cached c l = List.filter (fun a -> a.cached = c) l in
  let summary p =
    let lat = lat_of p.answered in
    Json.Obj
      [ ("requests", Json.Int (List.length p.answered));
        ("wall_s", Json.Float p.wall_s);
        ("p50_ms", Json.Float (p50 lat));
        ("p99_ms", Json.Float (p99 lat));
        (* a backlog that grows shows as a median rising quarter on quarter *)
        ( "quarter_p50_ms",
          let n = List.length lat in
          Json.List
            (List.init 4 (fun q ->
                 Json.Float (p50 (List.filteri (fun i _ -> i * 4 / max 1 n = q) lat)))) );
        ("hit_p50_ms", Json.Float (p50 (lat_of (cached true p.answered))));
        ("miss_p50_ms", Json.Float (p50 (lat_of (cached false p.answered))));
        ("miss_p99_ms", Json.Float (p99 (lat_of (cached false p.answered))));
        ("gen_late_p99_ms", Json.Float (p99 (List.map (fun a -> a.late_ms) p.answered)));
        ("daemon_cpu_s", Json.Float p.cpu_s);
        ("counters", Json.member "counters" (snd p.counters)) ]
  in
  let common_extra =
    [ ("setup_s", Json.List (List.map (fun s -> Json.Float s) setup_samples));
      ("resimulated", Json.Int (List.length fresh_answers));
      ("slices", Json.List (List.map summary slices)) ]
  in
  if not traced then
    { Outcome.attempted = !attempted;
      failed = !failed;
      metrics =
        [ ("setup_s", B.median setup_samples);
          (* Each hit-set spec's fastest reply over the run, timed from
             its due time, averaged over the 36 specs: the fixed cost of
             serving a cached result. Most of a hit is resolving its
             spec, 0.15 ms for bzip2 and 4 to 7 ms for vortex or vpr,
             so the hits' latencies bunch by workload. Their median also
             measures how long the daemon's threads wait for a core: two
             bursty neighbours raised it by 70 to 90% and this floor by
             under 10%, as much as the daemon's CPU time per request
             (pfbench/README.md, Steadiness). The median and p99 stay in
             BENCH_pfbench.json, per slice. *)
          ("op_ms", hit_floor_ms (List.concat_map (fun p -> p.answered) slices));
          (* the daemon's CPU over every measured request: a per-slice
             median would rest on a few 10 ms clock ticks per slice *)
          ( "op_cpu_ms",
            1000.
            *. List.fold_left (fun a p -> a +. p.cpu_s) 0. slices
            /. float_of_int (List.fold_left (fun a p -> a + List.length p.answered) 0 slices) );
          ("peak_rss_mb", float_of_int rss_kb /. 1024.) ];
      extra = common_extra }
  else begin
    let all = List.concat_map (fun p -> p.answered) slices in
    let total f = List.fold_left (fun a p -> a +. f p) 0. slices in
    let delta name = total (fun p -> counter_delta p.counters name) in
    let cpu_s = total (fun p -> p.cpu_s) and wall_s = total (fun p -> p.wall_s) in
    let prepare_ms =
      total (fun p ->
          Json.to_float (Json.member "prepare_ms" (snd p.counters))
          -. Json.to_float (Json.member "prepare_ms" (fst p.counters)))
    in
    (* the generator takes the same timestamps traced or not; tracing
       adds only building the spans from them, after each slice *)
    let buf = Span.buffer 0 in
    let (), span_s = B.time (fun () -> List.iter (request_spans buf) slices) in
    let spans = Span.merge [ buf ] in
    let rows =
      [ ("serve.hit_p50_ms", p50 (lat_of (cached true all)));
        ("serve.hit_p99_ms", p99 (lat_of (cached true all)));
        ("serve.miss_p50_ms", p50 (lat_of (cached false all)));
        ("serve.miss_p99_ms", p99 (lat_of (cached false all)));
        ("serve.server_p50_ms", p50 (List.map (fun a -> a.server_ms) all));
        ( "serve.wire_p50_ms",
          p50
            (List.map
               (fun a -> (1000. *. (a.r.replied -. a.r.sent)) -. a.server_ms)
               all) );
        ("serve.batched_frac", ratio (delta "batched_runs") (delta "simulations"));
        ( "serve.prep_reuse_frac",
          ratio (delta "prep_reuses") (delta "prep_reuses" +. delta "prep_builds") );
        ( "prepare.store_hit_ratio",
          ratio (delta "trace_store_hits") (delta "trace_store_hits" +. delta "trace_store_misses") );
        ( "sweep.cache_hit_ratio",
          ratio (delta "run_cache_hits") (delta "run_cache_hits" +. delta "run_cache_misses") );
        ("sweep.prepare_frac", ratio prepare_ms (1000. *. cpu_s));
        ("sweep.batched_frac", ratio (delta "batched_runs") (delta "simulations"));
        ("sweep.pool_busy_frac", ratio cpu_s (float_of_int jobs *. wall_s));
        ("sweep.setup_ms", 1000. *. reopen_s);
        ("trace.overhead_pct", 100. *. span_s /. wall_s);
        ("trace.unattributed_frac", Span.unattributed_frac spans) ]
    in
    let runs = List.map (fun a -> Sweep.run_of_json a.run) filled in
    let attribution = Attribution.run ~work ~jobs ~specs:hit_set ~runs in
    { Outcome.attempted = !attempted;
      failed = !failed;
      metrics =
        List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k rows) ~default:v)) attribution
        @ List.filter (fun (k, _) -> not (List.mem_assoc k attribution)) rows;
      extra =
        common_extra
        @ [ ("spans", Span.aggregate_json (Span.aggregate spans));
            ("chrome", Span.to_chrome ~process:"pfbench serve-mixed" spans) ] }
  end
