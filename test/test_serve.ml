(* Tests for pf_serve and the sharded LRU run cache underneath it:
   request codec round trips and error paths, the response encoding,
   cache cold-start / sharding / eviction-order behaviour, scheduler
   coalescing, no_cache, a hit checked against its spec's workload and
   label, prep sharing (also under concurrent first requests and across
   both workers), a failing request answering only itself and the
   deterministic timeout path, and integration cases against a live
   server: the socket
   protocol, the request size limit, the refused [no_event_skip] member,
   concurrent clients checked byte for byte against a direct sweep,
   stopping after the socket file is gone, and shutdown followed by a
   second boot over the persisted trace store. *)

open Pf_serve
module Json = Pf_json.Json
module Run_cache = Pf_report.Run_cache
module Sweep = Pf_report.Sweep
module Counters = Pf_obs.Counters

let case name f = Alcotest.test_case name `Quick f

let temp_dir =
  let serial = ref 0 in
  fun () ->
    incr serial;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pf_serve_test_%d_%d" (Unix.getpid ()) !serial)
    in
    let rec rm_rf p =
      match Unix.lstat p with
      | { Unix.st_kind = Unix.S_DIR; _ } ->
          Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
      | _ -> Unix.unlink p
      | exception Unix.Unix_error _ -> ()
    in
    rm_rf d;
    Unix.mkdir d 0o700;
    d

(* ---- protocol ---- *)

let all_codes =
  [ Protocol.Parse_error; Protocol.Bad_request; Protocol.Unknown_workload;
    Protocol.Unknown_policy; Protocol.Timeout; Protocol.Shutting_down;
    Protocol.Internal ]

(* the ["code"] names docs/SERVING.md documents, one per code *)
let test_error_code_names () =
  let names = List.map Protocol.error_code_name all_codes in
  Alcotest.(check (list string))
    "documented names"
    [ "parse_error"; "bad_request"; "unknown_workload"; "unknown_policy";
      "timeout"; "shutting_down"; "internal" ]
    names;
  Alcotest.(check int) "all distinct" (List.length all_codes)
    (List.length (List.sort_uniq String.compare names))

let req_roundtrips r =
  Protocol.request_of_json (Protocol.request_to_json r) = Ok r

let test_request_roundtrip () =
  let full =
    Protocol.Run
      { id = Json.Int 42;
        workload = "gzip";
        policy = "postdoms";
        label = Some "mine";
        window = Some 4_000;
        config = Some (Json.Obj [ ("task_slots", Json.Int 4) ]);
        timeout_ms = Some 250;
        no_cache = true }
  in
  let minimal =
    Protocol.Run
      { id = Json.Null;
        workload = "mcf";
        policy = "postdoms";
        label = None;
        window = None;
        config = None;
        timeout_ms = None;
        no_cache = false }
  in
  List.iter
    (fun r -> Alcotest.(check bool) "request round trip" true (req_roundtrips r))
    [ full; minimal;
      Protocol.Stats (Json.String "s1");
      Protocol.Ping Json.Null;
      Protocol.Shutdown (Json.Int 9) ]

let test_request_defaults () =
  (* op defaults to run, policy to postdoms *)
  match Protocol.request_of_line {|{"workload":"gzip"}|} with
  | Ok (Protocol.Run r) ->
      Alcotest.(check string) "default policy" "postdoms" r.Protocol.policy;
      Alcotest.(check bool) "no id" true (r.Protocol.id = Json.Null);
      Alcotest.(check bool) "no window" true (r.Protocol.window = None)
  | _ -> Alcotest.fail "bare workload line should decode as a run request"

let test_request_errors () =
  let code line =
    match Protocol.request_of_line line with
    | Error (c, _) -> Some c
    | Ok _ -> None
  in
  Alcotest.(check bool) "bad json" true
    (code "{not json" = Some Protocol.Parse_error);
  Alcotest.(check bool) "non-object" true
    (code "[1,2]" = Some Protocol.Bad_request);
  Alcotest.(check bool) "missing workload" true
    (code {|{"op":"run"}|} = Some Protocol.Bad_request);
  Alcotest.(check bool) "mistyped window" true
    (code {|{"workload":"gzip","window":"big"}|} = Some Protocol.Bad_request);
  Alcotest.(check bool) "mistyped no_cache" true
    (code {|{"workload":"gzip","no_cache":1}|} = Some Protocol.Bad_request);
  Alcotest.(check bool) "unknown op" true
    (code {|{"op":"explode"}|} = Some Protocol.Bad_request)

(* Request decoding never raises ([protocol.mli]): any line a client
   sends, however broken, must come back as [Ok] or [Error]. The inputs
   are random bytes, random strings over JSON's own alphabet, and valid
   request lines cut short or with one byte changed; a valid line left
   intact must decode to the request that wrote it. *)
let request_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  let num = frequency [ (3, small_signed_int); (1, int) ] in
  let id =
    oneof
      [ return Json.Null;
        map (fun i -> Json.Int i) num;
        map (fun s -> Json.String s) str ]
  in
  let config =
    map
      (fun (k, v) -> Json.Obj [ (k, Json.Int v) ])
      (pair (oneofl [ "task_slots"; "width"; "max_cycles_per_instr" ]) num)
  in
  oneof
    [ (let+ id = id
       and+ workload = str
       and+ policy = str
       and+ label = opt str
       and+ window = opt num
       and+ config = opt config
       and+ timeout_ms = opt num
       and+ no_cache = bool in
       Protocol.Run
         { id; workload; policy; label; window; config; timeout_ms; no_cache });
      map (fun id -> Protocol.Stats id) id;
      map (fun id -> Protocol.Ping id) id;
      map (fun id -> Protocol.Shutdown id) id ]

let decoder_input =
  let open QCheck.Gen in
  let line_of r = Json.to_string (Protocol.request_to_json r) in
  let json_char =
    oneofl (List.of_seq (String.to_seq "{}[]\":,.-+eE0123456789 \\ubtrufalsn"))
  in
  let junk gen = map (fun s -> (None, s)) (string_size ~gen (int_bound 64)) in
  let gen =
    frequency
      [ (1, junk char);
        (1, junk json_char);
        (1, map (fun r -> (Some r, line_of r)) request_gen);
        ( 2,
          let* l = map line_of request_gen in
          let+ k = int_bound (String.length l) in
          (None, String.sub l 0 k) );
        ( 2,
          let* l = map line_of request_gen in
          let+ i = int_bound (String.length l - 1)
          and+ c = char in
          (None, String.mapi (fun j b -> if j = i then c else b) l) ) ]
  in
  QCheck.make ~print:(fun (_, line) -> Printf.sprintf "%S" line) gen

let request_decoder_prop =
  QCheck.Test.make ~name:"request decoding never raises" ~count:10_000
    decoder_input (fun (intact, line) ->
      let decoded = Protocol.request_of_line line in
      match intact with Some r -> decoded = Ok r | None -> true)

(* Clients read a reply's members directly, so the encoder's bytes are
   the contract: each reply form, with its id omitted when [Null]. *)
let test_response_encoding () =
  let run_reply =
    Protocol.Run_reply
      { rr_id = Json.Int 1;
        cached = true;
        coalesced = false;
        digest = "abc123";
        wall_ms = 0.25;
        run = Json.Obj [ ("workload", Json.String "gzip") ] }
  in
  List.iter
    (fun (r, line) ->
      Alcotest.(check string) "response encoding" line
        (Json.to_string (Protocol.response_to_json r)))
    [ ( run_reply,
        {|{"id":1,"status":"ok","op":"run","cached":true,"coalesced":false,"digest":"abc123","wall_ms":0.25,"run":{"workload":"gzip"}}|}
      );
      ( Protocol.Stats_reply { sr_id = Json.Null; stats = Json.Obj [] },
        {|{"status":"ok","op":"stats","stats":{}}|} );
      (Protocol.Pong (Json.Int 3), {|{"id":3,"status":"ok","op":"ping"}|});
      (Protocol.Shutdown_reply Json.Null, {|{"status":"ok","op":"shutdown"}|});
      ( Protocol.Error_reply
          { er_id = Json.Int 8; code = Protocol.Timeout; message = "too slow" },
        {|{"id":8,"status":"error","code":"timeout","message":"too slow"}|} ) ]

(* ---- run cache: cold start, sharding, LRU ---- *)

(* the cache only recognizes 32-char lowercase-hex names as entries, so
   test digests must be shaped like real ones *)
let hex_digest prefix fill = prefix ^ String.make 30 fill
let d_aa = hex_digest "aa" '1'
let d_ab = hex_digest "ab" '2'
let d_bb = hex_digest "bb" '3'
let d_cc = hex_digest "cc" '4'

(* a run record per digest: labelled with it, so each entry differs *)
let entry digest = { Test_report.sample_run with Sweep.label = digest }

let store cache digest = Run_cache.store_run cache ~digest (entry digest)

let find cache digest =
  Run_cache.find_run cache ~digest ~workload:"gzip" ~label:digest

let test_cache_cold_start_creates_parents () =
  (* regression: create must mkdir -p missing parent directories *)
  let root = temp_dir () in
  let dir = Filename.concat root "a/b/c/cache" in
  let cache = Run_cache.create ~dir () in
  store cache d_aa;
  Alcotest.(check bool) "find after cold start" true
    (find cache d_aa = Some (entry d_aa));
  Alcotest.(check bool) "dir exists" true
    (Sys.is_directory dir)

let test_cache_sharding () =
  let cache = Run_cache.create ~dir:(temp_dir ()) () in
  store cache d_ab;
  let p = Run_cache.path cache ~digest:d_ab in
  Alcotest.(check bool) "entry lives in its shard" true (Sys.file_exists p);
  Alcotest.(check string) "shard is the digest prefix" "ab"
    (Filename.basename (Filename.dirname p))

let test_cache_lru_eviction_order () =
  let counters = Counters.create () in
  let cache = Run_cache.create ~cap:2 ~counters ~dir:(temp_dir ()) () in
  store cache d_aa;
  store cache d_bb;
  (* touch aa01 so bb02 becomes the least recently used *)
  Alcotest.(check bool) "hit before eviction" true (find cache d_aa <> None);
  store cache d_cc;
  Alcotest.(check bool) "LRU entry evicted" true (find cache d_bb = None);
  Alcotest.(check bool) "recently-hit entry survives" true
    (find cache d_aa <> None);
  Alcotest.(check bool) "new entry present" true (find cache d_cc <> None);
  let s = Run_cache.stats cache in
  Alcotest.(check int) "entries at cap" 2 s.Run_cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Run_cache.evictions;
  Alcotest.(check int) "stores counted" 3 s.Run_cache.stores;
  (* the same numbers flow into the registry *)
  let v name = List.assoc name (Counters.to_alist counters) in
  Alcotest.(check int) "registry evictions" 1 (v "run_cache_evictions");
  Alcotest.(check int) "registry stores" 3 (v "run_cache_stores")

let test_cache_recency_survives_reopen () =
  (* LRU order is seeded from mtimes, so a restart keeps it: hits
     refresh mtime via utimes *)
  let dir = temp_dir () in
  let c1 = Run_cache.create ~dir () in
  store c1 d_aa;
  store c1 d_bb;
  (* push aa01's mtime well into the past, as an old hit would be *)
  let past = Unix.gettimeofday () -. 3600. in
  Unix.utimes (Run_cache.path c1 ~digest:d_aa) past past;
  let c2 = Run_cache.create ~cap:1 ~dir () in
  store c2 d_cc;
  Alcotest.(check bool) "stale entry evicted first" true (find c2 d_aa = None);
  Alcotest.(check bool) "new entry survives" true (find c2 d_cc <> None)

(* ---- scheduler ---- *)

let run_request ?(id = Json.Null) ?label ?window ?timeout_ms ?(no_cache = false)
    workload policy =
  { Protocol.id;
    workload;
    policy;
    label;
    window;
    config = None;
    timeout_ms;
    no_cache }

(* [config]'s JSON with member [name] set to [v] *)
let edited ?(config = Pf_uarch.Config.polyflow) name v =
  match Pf_report.Codec.config_to_json config with
  | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> (k, if k = name then v else x)) fields)
  | _ -> assert false

(* Stepped one cycle at a time, these depths would make one gzip run at
   window 2,000 take months: a daemon that accepted this config would
   lose a worker to it. *)
let stepped_config =
  edited "no_event_skip" (Json.Bool true)
    ~config:
      { Pf_uarch.Config.polyflow with
        frontend_depth = 1_000_000_000_000;
        max_cycles_per_instr = 1_000_000_000_000_000 }

let mistyped_width = edited "width" (Json.String "x")

(* Run [f] on its own thread: whether it returned within [secs]. A
   shutdown that joins a worker stuck in a run that never ends fails
   its case this way instead of hanging the suite. *)
let returns_within secs f =
  let finished = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         f ();
         Atomic.set finished true)
       ());
  let deadline = Unix.gettimeofday () +. secs in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  Atomic.get finished

let with_scheduler ?cache ?trace_store ?(jobs = 1) f =
  let counters = Counters.create () in
  let sched = Scheduler.create ?cache ?trace_store ~jobs ~counters () in
  let shutdown () = returns_within 30. (fun () -> Scheduler.shutdown sched) in
  match f sched counters with
  | v ->
      Alcotest.(check bool) "Scheduler.shutdown returned within 30 s" true
        (shutdown ());
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (shutdown ());
      Printexc.raise_with_backtrace e bt

let counter counters name = List.assoc name (Counters.to_alist counters)

(* poll the scheduler's integer gauges until [ready] holds (~5 s cap) *)
let wait_gauges sched ready =
  let gauge name =
    match List.assoc name (Scheduler.stats_fields sched) with
    | Json.Int i -> i
    | _ -> 0
  in
  let rec go n =
    if (not (ready gauge)) && n > 0 then begin
      Thread.yield ();
      Unix.sleepf 0.001;
      go (n - 1)
    end
  in
  go 5_000

(* [reqs] sent at once, each from a thread of its own: their replies, in
   order *)
let run_concurrently sched reqs =
  let replies = Array.make (List.length reqs) None in
  List.mapi
    (fun i req ->
      Thread.create (fun () -> replies.(i) <- Some (Scheduler.run sched req)) ())
    reqs
  |> List.iter Thread.join;
  List.map Option.get (Array.to_list replies)

(* Send [blockers] from threads of their own and wait until the workers
   have popped them all (in flight, none queued), so requests sent next
   queue behind them. The result joins the blockers and checks that each
   was answered. *)
let hold_workers sched blockers =
  let replies = ref [] in
  let th =
    Thread.create (fun () -> replies := run_concurrently sched blockers) ()
  in
  wait_gauges sched (fun gauge ->
      gauge "inflight" >= List.length blockers && gauge "queued" = 0);
  fun () ->
    Thread.join th;
    List.iter
      (function
        | Protocol.Run_reply _ -> ()
        | _ -> Alcotest.fail "blocker request did not complete")
      !replies

(* [replies] are fresh runs whose metrics and counters equal a solo
   sweep of [specs], spec by spec *)
let check_solo specs replies =
  let direct, _ = Sweep.execute ~jobs:1 ~batch:1 specs in
  List.iter2
    (fun run reply ->
      match reply with
      | Protocol.Run_reply r ->
          Alcotest.(check bool) "fresh" false r.Protocol.cached;
          List.iter
            (fun field ->
              Alcotest.(check string)
                (field ^ " equal a solo sweep")
                (Json.to_string (Json.member field (Sweep.run_to_json run)))
                (Json.to_string (Json.member field r.Protocol.run)))
            [ "metrics"; "counters" ]
      | _ -> Alcotest.failf "%s failed" run.Sweep.label)
    direct replies

let test_scheduler_resolution_errors () =
  with_scheduler (fun sched _ ->
      (match Scheduler.run sched (run_request "no-such" "postdoms") with
      | Protocol.Error_reply { code = Protocol.Unknown_workload; _ } -> ()
      | _ -> Alcotest.fail "unknown workload not rejected");
      (match Scheduler.run sched (run_request "gzip" "no-such") with
      | Protocol.Error_reply { code = Protocol.Unknown_policy; _ } -> ()
      | _ -> Alcotest.fail "unknown policy not rejected");
      (match Scheduler.run sched (run_request ~window:0 "gzip" "postdoms") with
      | Protocol.Error_reply { code = Protocol.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "window 0 not rejected");
      (* the deadline turns a config that is wrongly accepted into a
         timeout reply rather than a wait as long as its run *)
      let with_config ?(window = 2_000) ?(policy = "postdoms") config =
        { (run_request ~window ~timeout_ms:200 "gzip" policy) with
          Protocol.config = Some config }
      in
      let bad_config field message =
        Test_cfg.contains ~needle:(Printf.sprintf "bad \"config\": %S" field)
          message
      in
      (* out of range, stepped cycle by cycle, or mistyped: each is
         refused naming its member *)
      List.iter
        (fun (field, config) ->
          match Scheduler.run sched (with_config config) with
          | Protocol.Error_reply { code = Protocol.Bad_request; message; _ }
            when bad_config field message ->
              ()
          | _ -> Alcotest.failf "bad %s not rejected" field)
        (List.map
           (fun (field, c) -> (field, Pf_report.Codec.config_to_json c))
           Test_uarch.hostile_configs
        @ [ ("no_event_skip", stepped_config); ("width", mistyped_width) ]);
      (match Scheduler.run sched (with_config mistyped_width) with
      | Protocol.Error_reply { message; _ } ->
          Alcotest.(check string) "a mistyped member is named"
            {|bad "config": "width": expected int, got string|} message
      | _ -> Alcotest.fail "mistyped width not rejected");
      (* the order stays workload, policy, config, window *)
      let field, hostile = List.hd Test_uarch.hostile_configs in
      let hostile = Pf_report.Codec.config_to_json hostile in
      (match Scheduler.run sched (with_config ~policy:"no-such" hostile) with
      | Protocol.Error_reply { code = Protocol.Unknown_policy; _ } -> ()
      | _ -> Alcotest.fail "a bad policy does not come before a bad config");
      match Scheduler.run sched (with_config ~window:0 hostile) with
      | Protocol.Error_reply { code = Protocol.Bad_request; message; _ }
        when bad_config field message ->
          ()
      | _ -> Alcotest.fail "a bad config does not come before a bad window")

let test_scheduler_hit_miss_and_prep_sharing () =
  let cache = Run_cache.create ~dir:(temp_dir ()) () in
  with_scheduler ~cache (fun sched counters ->
      let req = run_request ~window:2_000 "gzip" "postdoms" in
      let first =
        match Scheduler.run sched req with
        | Protocol.Run_reply r ->
            Alcotest.(check bool) "first is fresh" false r.Protocol.cached;
            r.Protocol.run
        | _ -> Alcotest.fail "first run failed"
      in
      (match Scheduler.run sched req with
      | Protocol.Run_reply r ->
          Alcotest.(check bool) "second is cached" true r.Protocol.cached;
          Alcotest.(check string) "byte-identical replay"
            (Json.to_string first)
            (Json.to_string r.Protocol.run)
      | _ -> Alcotest.fail "second run failed");
      (* a different policy over the same window reuses the prepared
         trace instead of re-running architectural execution *)
      (match Scheduler.run sched (run_request ~window:2_000 "gzip" "superscalar") with
      | Protocol.Run_reply r ->
          Alcotest.(check bool) "other policy fresh" false r.Protocol.cached
      | _ -> Alcotest.fail "superscalar run failed");
      Alcotest.(check int) "one prep build" 1 (counter counters "prep_builds");
      Alcotest.(check bool) "prep reused" true
        (counter counters "prep_reuses" >= 1);
      Alcotest.(check int) "two simulations" 2
        (counter counters "simulations"))

let test_scheduler_no_cache () =
  let cache = Run_cache.create ~dir:(temp_dir ()) () in
  with_scheduler ~cache (fun sched counters ->
      let req = run_request ~window:2_000 ~no_cache:true "mcf" "postdoms" in
      let cached r =
        match r with
        | Protocol.Run_reply r -> r.Protocol.cached
        | _ -> Alcotest.fail "no_cache run failed"
      in
      Alcotest.(check bool) "first fresh" false (cached (Scheduler.run sched req));
      Alcotest.(check bool) "second still fresh" false
        (cached (Scheduler.run sched req));
      Alcotest.(check int) "simulated twice" 2 (counter counters "simulations");
      (* a normal request is then served from the cache the no_cache
         runs filled *)
      Alcotest.(check bool) "plain request hits" true
        (cached (Scheduler.run sched (run_request ~window:2_000 "mcf" "postdoms"))))

(* One worker, held by a blocker, so request A and a [no_cache] request
   B for the same spec queue behind it, and B's job replaces A's pending
   entry. A's finish must leave B's entry in place: while B runs, the
   daemon counts it in flight, and request D, sent after A's reply,
   joins it instead of simulating the spec a third time. *)
let test_scheduler_no_cache_stays_pending () =
  with_scheduler ~jobs:1 (fun sched counters ->
      let join =
        hold_workers sched [ run_request ~window:200_000 "mcf" "superscalar" ]
      in
      let send req =
        let reply = ref None in
        let th =
          Thread.create (fun () -> reply := Some (Scheduler.run sched req)) ()
        in
        fun () ->
          Thread.join th;
          match !reply with
          | Some (Protocol.Run_reply r) -> r
          | _ -> Alcotest.fail "request failed"
      in
      let req = run_request ~window:300_000 "gzip" "postdoms" in
      let a = send req in
      wait_gauges sched (fun gauge -> gauge "queued" = 1);
      let b = send { req with Protocol.no_cache = true } in
      wait_gauges sched (fun gauge -> gauge "queued" = 2);
      ignore (a ());
      Alcotest.(check string) "the no_cache job is in flight after A's reply"
        "1"
        (Json.to_string (List.assoc "inflight" (Scheduler.stats_fields sched)));
      (match Scheduler.run sched req with
      | Protocol.Run_reply d ->
          Alcotest.(check bool) "D joins the no_cache job" true
            d.Protocol.coalesced
      | _ -> Alcotest.fail "request D failed");
      Alcotest.(check bool) "the no_cache reply is fresh" false
        (b ()).Protocol.cached;
      join ();
      Alcotest.(check int) "the blocker, A and the no_cache job simulated" 3
        (counter counters "simulations"))

(* The daemon checks a hit's workload and label, as the sweep does: a
   gzip run filed under an mcf spec's digest is resimulated on both
   probes (the request's, then the worker's in-queue re-check), not
   served, and the fresh run repairs the entry. *)
let test_scheduler_checks_hit_identity () =
  let cache = Run_cache.create ~dir:(temp_dir ()) () in
  let mcf =
    match
      Sweep.resolve (Sweep.spec ~window:2_000 "mcf" Pf_core.Policy.Postdoms)
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "the mcf spec does not resolve"
  in
  Run_cache.store_run cache ~digest:mcf.Sweep.r_digest Test_report.sample_run;
  with_scheduler ~cache (fun sched counters ->
      let req = run_request ~window:2_000 "mcf" "postdoms" in
      (match Scheduler.run sched req with
      | Protocol.Run_reply r ->
          Alcotest.(check bool) "the gzip entry is not served" false
            r.Protocol.cached;
          Alcotest.(check string) "the reply is mcf's run" "mcf"
            (Json.to_str (Json.member "workload" r.Protocol.run))
      | _ -> Alcotest.fail "mcf run failed");
      Alcotest.(check int) "resimulated" 1 (counter counters "simulations");
      match Scheduler.run sched req with
      | Protocol.Run_reply r ->
          Alcotest.(check bool) "the repaired entry hits" true r.Protocol.cached
      | _ -> Alcotest.fail "second mcf run failed")

let test_scheduler_coalescing () =
  let cache = Run_cache.create ~dir:(temp_dir ()) () in
  with_scheduler ~cache ~jobs:2 (fun sched counters ->
      let req = run_request ~window:2_000 "twolf" "postdoms" in
      let replies = run_concurrently sched (List.init 4 (fun _ -> req)) in
      (* each concurrent identical request is the one that simulated, a
         coalesced joiner of the in-flight job, or a cache hit of the
         result it stored — never a second simulation *)
      let fresh, joined =
        List.fold_left
          (fun (fresh, joined) r ->
            match r with
            | Protocol.Run_reply r ->
                if r.Protocol.cached || r.Protocol.coalesced then
                  (fresh, joined + 1)
                else (fresh + 1, joined)
            | _ -> Alcotest.fail "concurrent run failed")
          (0, 0) replies
      in
      Alcotest.(check int) "exactly one fresh simulation" 1 fresh;
      Alcotest.(check int) "the rest joined or hit" 3 joined;
      Alcotest.(check int) "one simulation" 1 (counter counters "simulations");
      Alcotest.(check int) "all requests counted" 4
        (counter counters "run_requests");
      let bytes r =
        match r with
        | Protocol.Run_reply r -> Json.to_string r.Protocol.run
        | _ -> Alcotest.fail "concurrent run failed"
      in
      List.iter
        (fun r ->
          Alcotest.(check string) "byte-identical payloads"
            (bytes (List.hd replies)) (bytes r))
        replies)

let test_scheduler_timeout () =
  (* one worker, occupied by a deliberately large window: the second
     request sits in the queue past its deadline — deterministically,
     because the worker cannot pick it up before finishing the first *)
  with_scheduler ~jobs:1 (fun sched counters ->
      let slow = run_request ~window:400_000 "gzip" "postdoms" in
      let slow_reply = ref None in
      let th =
        Thread.create (fun () -> slow_reply := Some (Scheduler.run sched slow)) ()
      in
      (* wait until the slow job is actually in flight *)
      wait_gauges sched (fun gauge -> gauge "inflight" > 0);
      (match
         Scheduler.run sched
           (run_request ~window:2_000 ~timeout_ms:5 "mcf" "postdoms")
       with
      | Protocol.Error_reply { code = Protocol.Timeout; _ } -> ()
      | _ -> Alcotest.fail "queued request did not time out");
      Alcotest.(check int) "timeout counted" 1
        (counter counters "request_timeouts");
      Thread.join th;
      match !slow_reply with
      | Some (Protocol.Run_reply _) -> ()
      | _ -> Alcotest.fail "slow request did not complete")

(* One worker, held by a blocker, so two fresh requests for one
   (workload, window) queue behind it. One carries a config whose
   watchdog trips on the first cycle; its failure must answer only its
   own request. *)
let test_scheduler_failure_isolated () =
  with_scheduler ~jobs:1 (fun sched counters ->
      let join =
        hold_workers sched [ run_request ~window:200_000 "gzip" "superscalar" ]
      in
      let watchdog_config =
        { Pf_uarch.Config.polyflow with Pf_uarch.Config.max_cycles_per_instr = 0 }
      in
      let bad =
        { (run_request ~window:2_000 ~label:"postdoms@watchdog" "gzip"
             "postdoms")
          with
          Protocol.config =
            Some (Pf_report.Codec.config_to_json watchdog_config) }
      in
      let good = run_request ~window:2_000 "gzip" "postdoms" in
      let replies = run_concurrently sched [ bad; good ] in
      join ();
      (match List.hd replies with
      | Protocol.Error_reply { code = Protocol.Internal; message; _ }
        when Test_cfg.contains ~needle:"watchdog" message ->
          ()
      | _ -> Alcotest.fail "watchdog request did not get an internal error");
      check_solo
        [ Sweep.spec ~window:2_000 "gzip" Pf_core.Policy.Postdoms ]
        (List.tl replies);
      Alcotest.(check int) "blocker and the valid request simulated" 2
        (counter counters "simulations");
      Alcotest.(check bool) "no batched_runs counter" false
        (List.mem_assoc "batched_runs" (Counters.to_alist counters));
      match Scheduler.run sched (run_request ~window:2_000 "gzip" "superscalar") with
      | Protocol.Run_reply _ -> ()
      | _ -> Alcotest.fail "later request not answered")

(* Two workers, each held by a blocker on a window of its own, and four
   fresh requests for one gzip window under four policies queued behind
   them. Each job is its own work item and acquires the window itself,
   so the window is prepared once and reused three times, whichever
   worker runs which job. *)
let test_scheduler_same_window_every_worker () =
  with_scheduler ~jobs:2 (fun sched counters ->
      let join =
        hold_workers sched
          [ run_request ~window:200_000 "mcf" "superscalar";
            run_request ~window:200_000 "twolf" "superscalar" ]
      in
      let policies = [ "superscalar"; "postdoms"; "rec_pred"; "dmt" ] in
      let replies =
        run_concurrently sched
          (List.map (run_request ~window:2_000 "gzip") policies)
      in
      join ();
      Alcotest.(check int) "prep_builds" 3 (counter counters "prep_builds");
      Alcotest.(check int) "prep_reuses" 3 (counter counters "prep_reuses");
      Alcotest.(check int) "simulations" 6 (counter counters "simulations");
      check_solo
        (List.map
           (fun p ->
             Sweep.spec ~window:2_000 "gzip"
               (Result.get_ok (Pf_core.Policy.of_string p)))
           policies)
        replies)

(* Twelve threads ask at once for twelve policies over one fresh gzip
   window, on two workers. Each of the twelve jobs acquires the window
   itself, usually on both workers at once; it must still be prepared
   once, with one trace-store lookup. *)
let test_scheduler_concurrent_first_requests () =
  let dir = temp_dir () in
  let cache_dir = Filename.concat dir "cache" in
  let cache = Run_cache.create ~dir:cache_dir () in
  let trace_store =
    Pf_trace.Trace_store.create ~dir:(Filename.concat dir "tstore") ()
  in
  let policies =
    [ "superscalar"; "postdoms"; "rec_pred"; "dmt"; "adaptive"; "doacross";
      "loop"; "loopFT"; "procFT"; "hammock"; "other"; "loop+loopFT" ]
  in
  with_scheduler ~cache ~trace_store ~jobs:2 (fun sched counters ->
      let replies =
        run_concurrently sched
          (List.map (run_request ~window:2_000 "gzip") policies)
      in
      Alcotest.(check int) "one preparation" 1 (counter counters "prep_builds");
      Alcotest.(check int) "eleven reuses" 11 (counter counters "prep_reuses");
      let ts = Pf_trace.Trace_store.stats trace_store in
      Alcotest.(check int) "one trace-store lookup" 1
        (ts.Pf_trace.Trace_store.hits + ts.Pf_trace.Trace_store.misses);
      Alcotest.(check int) "twelve simulations" 12
        (counter counters "simulations");
      (* a sweep over the same cache directory replays every reply *)
      let cached = ref 0 in
      let direct, _ =
        Sweep.execute
          ~cache:(Run_cache.create ~dir:cache_dir ())
          ~on_stats:(fun s -> cached := s.Sweep.cached_runs)
          ~jobs:1
          (List.map
             (fun p ->
               Sweep.spec ~window:2_000 "gzip"
                 (Result.get_ok (Pf_core.Policy.of_string p)))
             policies)
      in
      Alcotest.(check int) "the sweep replays all twelve" 12 !cached;
      List.iter2
        (fun run reply ->
          match reply with
          | Protocol.Run_reply r ->
              Alcotest.(check string) "reply equals the sweep's replay"
                (Json.to_string r.Protocol.run)
                (Json.to_string (Sweep.run_to_json run))
          | _ -> Alcotest.fail "concurrent first request failed")
        direct replies)

(* ---- server integration over a real socket ---- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a daemon that stops answering fails the case instead of hanging
     the suite *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.;
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let rpc (_, ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  Json.of_string (input_line ic)

(* A daemon over [dir] with its run cache in [dir/cache], its trace
   store in [dir/tstore] and one worker. *)
let boot ?(cache = "cache") dir =
  let cfg =
    { (Server.default_config ~socket_path:(Filename.concat dir "s.sock")) with
      Server.jobs = 1;
      cache_dir = Some (Filename.concat dir cache);
      trace_store_dir = Some (Filename.concat dir "tstore") }
  in
  (Server.start cfg, cfg)

let close_conn (fd, _, _) = Unix.close fd

let str k j = Json.to_str (Json.member k j)

let test_server_socket_roundtrip () =
  let server, cfg = boot (temp_dir ()) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let c = connect cfg.Server.socket_path in
      Alcotest.(check string) "ping" "ping"
        (str "op" (rpc c {|{"op":"ping"}|}));
      Alcotest.(check bool) "ping echoes its id" true
        (Json.member "id" (rpc c {|{"op":"ping","id":7}|}) = Json.Int 7);
      let fresh = rpc c {|{"workload":"gzip","window":2000,"id":1}|} in
      Alcotest.(check string) "run ok" "ok" (str "status" fresh);
      Alcotest.(check bool) "first fresh" false
        (Json.to_bool (Json.member "cached" fresh));
      let hit = rpc c {|{"workload":"gzip","window":2000,"id":2}|} in
      Alcotest.(check bool) "second cached" true
        (Json.to_bool (Json.member "cached" hit));
      Alcotest.(check string) "byte-identical run payload"
        (Json.to_string (Json.member "run" fresh))
        (Json.to_string (Json.member "run" hit));
      Alcotest.(check bool) "ids echoed" true
        (Json.member "id" fresh = Json.Int 1 && Json.member "id" hit = Json.Int 2);
      Alcotest.(check string) "malformed line -> parse_error" "parse_error"
        (str "code" (rpc c "]["));
      Alcotest.(check string) "stats op" "stats"
        (str "op" (rpc c {|{"op":"stats"}|}));
      close_conn c);
  Alcotest.(check bool) "socket unlinked" false
    (Sys.file_exists cfg.Server.socket_path)

let test_server_refuses_shutdown_when_disabled () =
  let dir = temp_dir () in
  let cfg =
    { (Server.default_config ~socket_path:(Filename.concat dir "s.sock")) with
      Server.jobs = 1;
      cache_dir = None;
      allow_shutdown = false }
  in
  let server = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      match Server.dispatch server (Protocol.Shutdown Json.Null) with
      | Protocol.Error_reply { code = Protocol.Bad_request; _ } ->
          Alcotest.(check bool) "not stopping" false
            (Server.stop_requested server)
      | _ -> Alcotest.fail "disabled shutdown was honoured")

(* A line over [Conn.max_request_bytes] gets bad_request and its
   connection is closed before the daemon reads the rest of it; a new
   connection is served as usual. *)
let test_server_bounds_request_size () =
  let server, cfg = boot (temp_dir ()) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let ((fd, ic, _) as c) = connect cfg.Server.socket_path in
      let huge =
        Printf.sprintf {|{"op":"ping","id":"%s"}|}
          (String.make (2 * 1024 * 1024) 'a')
        ^ "\n"
      in
      (* the daemon closes the connection part-way through the line, so
         the write may fail *)
      (try ignore (Unix.write_substring fd huge 0 (String.length huge))
       with Unix.Unix_error _ -> ());
      Alcotest.(check string) "oversized line" "bad_request"
        (str "code" (Json.of_string (input_line ic)));
      (* closed with the rest of the line unread, which the client may
         see as a reset rather than an end of file *)
      Alcotest.(check bool) "connection closed" true
        (match In_channel.input_line ic with
        | None | (exception Sys_error _) -> true
        | Some _ -> false);
      close_conn c;
      let c = connect cfg.Server.socket_path in
      Alcotest.(check string) "a new connection still gets pong" "ping"
        (str "op" (rpc c {|{"op":"ping"}|}));
      close_conn c)

(* A daemon whose socket file is deleted under it (by a tmp cleaner,
   say) must still stop. *)
let test_server_stops_after_unlink () =
  let server, cfg = boot (temp_dir ()) in
  Unix.unlink cfg.Server.socket_path;
  Alcotest.(check bool) "Server.stop returned within 5 s" true
    (returns_within 5. (fun () -> Server.stop server))

(* The stepped-config request is refused before it reaches the one
   worker, so a valid run sent next on the same connection is answered
   at once. Every wait is bounded: replies by a 5 s receive timeout, and
   the stop by [returns_within], since a worker stuck in a stepped run
   would hold it forever. *)
let test_server_refuses_no_event_skip () =
  let server, cfg = boot (temp_dir ()) in
  Fun.protect
    ~finally:(fun () ->
      ignore (returns_within 5. (fun () -> Server.stop server)))
    (fun () ->
      let ((fd, _, _) as c) = connect cfg.Server.socket_path in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
      let stepped =
        rpc c
          (Json.to_string
             (Json.Obj
                [ ("workload", Json.String "gzip");
                  ("window", Json.Int 2_000);
                  ("timeout_ms", Json.Int 200);
                  ("config", stepped_config) ]))
      in
      Alcotest.(check string) "refused" "bad_request" (str "code" stepped);
      Alcotest.(check bool) "names the switch" true
        (Test_cfg.contains ~needle:{|"no_event_skip"|} (str "message" stepped));
      let t0 = Unix.gettimeofday () in
      let next = rpc c {|{"workload":"gzip","window":2000}|} in
      let took = Unix.gettimeofday () -. t0 in
      Alcotest.(check string) "the next run is served" "ok" (str "status" next);
      Alcotest.(check bool)
        (Printf.sprintf "within 1 s (took %.3f s)" took)
        true (took < 1.);
      close_conn c)

(* three workloads x three policy classes over one small window *)
let mix_window = 2_000

let mix =
  [ ("gzip", "superscalar"); ("gzip", "postdoms"); ("gzip", "rec_pred");
    ("mcf", "superscalar"); ("mcf", "postdoms"); ("mcf", "rec_pred");
    ("twolf", "superscalar"); ("twolf", "postdoms"); ("twolf", "rec_pred") ]

let run_line ?id (workload, policy) =
  Json.to_string
    (Json.Obj
       ((match id with None -> [] | Some i -> [ ("id", Json.Int i) ])
       @ [ ("workload", Json.String workload);
           ("policy", Json.String policy);
           ("window", Json.Int mix_window) ]))

let is_cached r = Json.to_bool (Json.member "cached" r)
let run_bytes r = Json.to_string (Json.member "run" r)

(* every spec of [mix] once, in order, each a fresh simulation *)
let cold_pass c =
  List.map
    (fun spec ->
      let r = rpc c (run_line spec) in
      Alcotest.(check string) "cold reply ok" "ok" (str "status" r);
      Alcotest.(check bool) "cold reply fresh" false (is_cached r);
      (spec, r))
    mix

let test_server_concurrent_clients () =
  let dir = temp_dir () in
  let server, cfg = boot dir in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let c = connect cfg.Server.socket_path in
      let cold = cold_pass c in
      let cold_bytes spec = run_bytes (List.assoc spec cold) in
      (* four clients, each on its own connection, each asking for every
         spec once from its own starting point *)
      let clients = 4 and n = List.length mix in
      let replies = Array.make clients [] in
      let client ci =
        let c = connect cfg.Server.socket_path in
        replies.(ci) <-
          List.init n (fun j ->
              let spec = List.nth mix ((ci + j) mod n) in
              let id = (ci * 1000) + j in
              (spec, id, rpc c (run_line ~id spec)));
        close_conn c
      in
      List.init clients (Thread.create client) |> List.iter Thread.join;
      let warm = List.concat (Array.to_list replies) in
      List.iter
        (fun (spec, id, r) ->
          Alcotest.(check string) "warm reply ok" "ok" (str "status" r);
          Alcotest.(check bool) "warm reply cached" true (is_cached r);
          Alcotest.(check bool) "warm reply echoes its id" true
            (Json.member "id" r = Json.Int id);
          Alcotest.(check string) "warm reply equals the cold reply"
            (cold_bytes spec) (run_bytes r))
        warm;
      Alcotest.(check string) "malformed line" "parse_error"
        (str "code" (rpc c "this is not json"));
      Alcotest.(check string) "unknown op" "bad_request"
        (str "code" (rpc c {|{"op":"explode"}|}));
      (* each spec simulated and stored once; every later request hit *)
      let stats = Json.member "stats" (rpc c {|{"op":"stats"}|}) in
      close_conn c;
      let int_at path =
        Json.to_int (List.fold_left (fun j k -> Json.member k j) stats path)
      in
      let counter name = int_at [ "counters"; name ] in
      Alcotest.(check int) "cache entries" n (int_at [ "cache"; "entries" ]);
      Alcotest.(check int) "simulations" n (counter "simulations");
      Alcotest.(check int) "run_cache_stores" n (counter "run_cache_stores");
      Alcotest.(check int) "run_cache_evictions" 0
        (counter "run_cache_evictions");
      Alcotest.(check int) "run_cache_hits" (List.length warm)
        (counter "run_cache_hits");
      Alcotest.(check int) "run_requests" (n + List.length warm)
        (counter "run_requests");
      Alcotest.(check int) "malformed_requests" 2 (counter "malformed_requests");
      (* window preparation went through the trace store: one entry per
         workload, and the prepare-time gauge is exposed *)
      Alcotest.(check int) "trace-store stores" 3
        (int_at [ "trace_store"; "stores" ]);
      Alcotest.(check int) "trace-store entries" 3
        (int_at [ "trace_store"; "entries" ]);
      Alcotest.(check bool) "prepare_ms gauge" true
        (Json.to_float (Json.member "prepare_ms" stats) >= 0.);
      (* the daemon's replies are the runs a direct sweep reads from the
         same cache directory *)
      let policy name =
        match Pf_core.Policy.of_string name with
        | Ok p -> p
        | Error m -> Alcotest.fail m
      in
      let direct, _ =
        Sweep.execute
          ~cache:(Run_cache.create ~dir:(Option.get cfg.Server.cache_dir) ())
          ~jobs:1
          (List.map (fun (w, p) -> Sweep.spec ~window:mix_window w (policy p)) mix)
      in
      List.iter2
        (fun spec run ->
          Alcotest.(check string) "reply equals a direct sweep"
            (cold_bytes spec)
            (Json.to_string (Sweep.run_to_json run)))
        mix direct)

let test_server_shutdown_and_second_boot () =
  let dir = temp_dir () in
  (* [shutdown] over the socket ends [Server.run]; [finally] tears the
     daemon down only if the case failed before that *)
  let serve ~cache f =
    let server, cfg = boot ~cache dir in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        let c = connect cfg.Server.socket_path in
        let result = f c in
        let bye = rpc c {|{"op":"shutdown","id":"bye"}|} in
        Alcotest.(check string) "shutdown acknowledged" "shutdown"
          (str "op" bye);
        Alcotest.(check bool) "shutdown echoes its id" true
          (Json.member "id" bye = Json.String "bye");
        close_conn c;
        Server.run server;
        Alcotest.(check bool) "socket unlinked" false
          (Sys.file_exists cfg.Server.socket_path);
        result)
  in
  let first = serve ~cache:"cache" cold_pass in
  (* a second daemon on the same trace store with a fresh run cache:
     every request simulates again, on windows read from the store *)
  let second, stats =
    serve ~cache:"cache2" (fun c ->
        let replies = cold_pass c in
        (replies, Json.member "stats" (rpc c {|{"op":"stats"}|})))
  in
  List.iter2
    (fun (_, r1) (_, r2) ->
      List.iter
        (fun field ->
          Alcotest.(check string)
            (field ^ " equal the first boot's")
            (Json.to_string (Json.member field (Json.member "run" r1)))
            (Json.to_string (Json.member field (Json.member "run" r2))))
        [ "metrics"; "counters" ])
    first second;
  let hits block = Json.to_int (Json.member "hits" (Json.member block stats)) in
  Alcotest.(check bool) "trace-store hits" true (hits "trace_store" > 0);
  Alcotest.(check int) "run-cache hits" 0 (hits "cache")

let suite =
  [ ( "serve.protocol",
      [ case "error code names" test_error_code_names;
        case "request round trip" test_request_roundtrip;
        case "request defaults" test_request_defaults;
        case "request error paths" test_request_errors;
        Prop.to_alcotest request_decoder_prop;
        case "response encoding" test_response_encoding ] );
    ( "serve.cache",
      [ case "cold start creates parents" test_cache_cold_start_creates_parents;
        case "digest-prefix sharding" test_cache_sharding;
        case "LRU eviction order" test_cache_lru_eviction_order;
        case "recency survives reopen" test_cache_recency_survives_reopen ] );
    ( "serve.scheduler",
      [ case "resolution errors" test_scheduler_resolution_errors;
        case "hit, miss and prep sharing" test_scheduler_hit_miss_and_prep_sharing;
        case "no_cache bypasses the cache" test_scheduler_no_cache;
        case "a finished job leaves a later no_cache job pending"
          test_scheduler_no_cache_stays_pending;
        case "a hit for another workload is resimulated"
          test_scheduler_checks_hit_identity;
        case "concurrent identical requests coalesce" test_scheduler_coalescing;
        case "queued request times out" test_scheduler_timeout;
        case "a failing request hurts only itself"
          test_scheduler_failure_isolated;
        case "same-window requests run on every worker"
          test_scheduler_same_window_every_worker;
        case "concurrent first requests prepare a window once"
          test_scheduler_concurrent_first_requests ] );
    ( "serve.server",
      [ case "socket round trip" test_server_socket_roundtrip;
        case "shutdown op can be disabled" test_server_refuses_shutdown_when_disabled;
        case "oversized request line" test_server_bounds_request_size;
        case "stops after its socket file is deleted"
          test_server_stops_after_unlink;
        case "no_event_skip is refused" test_server_refuses_no_event_skip;
        case "concurrent clients match a direct sweep"
          test_server_concurrent_clients;
        case "shutdown, then a second boot on the trace store"
          test_server_shutdown_and_second_boot ] ) ]
