(* Tests for the persistent preparation cache (Pf_trace.Trace_store):
   store-miss and store-hit preparation must be byte-identical to
   from-scratch preparation — Dyn streams, flat traces and full run
   records — plus key sensitivity, corruption handling and the LRU
   cap. *)

open Pf_trace
module Machine = Pf_isa.Machine
module Trace_store = Pf_trace.Trace_store
module Workload = Pf_workloads.Workload
module Run = Pf_uarch.Run
module Sweep = Pf_report.Sweep
module Json = Pf_report.Json

let case name f = Alcotest.test_case name `Quick f

let temp_store_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "pf_trace_store_%d_%d" (Unix.getpid ()) !n)
    in
    let rec rm_rf p =
      if Sys.file_exists p then
        if Sys.is_directory p then begin
          Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
    in
    rm_rf dir;
    dir

let make_store ?cap () = Trace_store.create ?cap ~dir:(temp_store_dir ()) ()

(* From-scratch reference: exactly what Run.prepare does without a
   store. *)
let reference_trace program ~setup ~fast_forward ~window =
  let m = Machine.create program in
  setup m;
  let tr = Tracer.capture m ~fast_forward ~window in
  if Tracer.length tr > 0 then Depinfo.compute tr;
  tr

let check_traces_equal what (a : Tracer.t) (b : Tracer.t) =
  Alcotest.(check int)
    (what ^ ": fast_forwarded") a.Tracer.fast_forwarded b.Tracer.fast_forwarded;
  Alcotest.(check int) (what ^ ": length") (Tracer.length a) (Tracer.length b);
  Array.iteri
    (fun i (da : Dyn.t) ->
      if da <> b.Tracer.dyns.(i) then
        Alcotest.failf "%s: record %d differs (pc %#x vs %#x)" what i
          da.Dyn.pc b.Tracer.dyns.(i).Dyn.pc)
    a.Tracer.dyns

let gzip () = Option.get (Pf_workloads.Suite.find "gzip")

(* ---- store hits ---- *)

let test_store_hit_round_trip () =
  let wl = gzip () in
  let prep ts =
    Trace_store.prepare ts wl.Workload.program ~setup:wl.Workload.setup
      ~fast_forward:wl.Workload.fast_forward ~window:3_000
  in
  let reference =
    reference_trace wl.Workload.program ~setup:wl.Workload.setup
      ~fast_forward:wl.Workload.fast_forward ~window:3_000
  in
  let ts = make_store () in
  let cold = prep ts in
  check_traces_equal "miss (from scratch)" reference cold;
  let warm = prep ts in
  check_traces_equal "hit (from disk)" reference warm;
  let s = Trace_store.stats ts in
  Alcotest.(check int) "one miss" 1 s.Trace_store.misses;
  Alcotest.(check int) "one hit" 1 s.Trace_store.hits;
  Alcotest.(check int) "one store" 1 s.Trace_store.stores;
  Alcotest.(check int) "one entry" 1 s.Trace_store.entries;
  Alcotest.(check bool) "bytes counted" true (s.Trace_store.bytes > 0);
  (* a second store over the same directory hits without re-preparing:
     the entry is persistent, not per-process *)
  let ts2 =
    Trace_store.create ~dir:(Trace_store.dir ts) ()
  in
  check_traces_equal "hit (new process image)" reference (prep ts2);
  Alcotest.(check int) "fresh store hits immediately" 1
    (Trace_store.stats ts2).Trace_store.hits;
  (* flat traces built from both paths are structurally identical *)
  Alcotest.(check bool) "flat traces equal" true
    (Flat_trace.of_trace reference = Flat_trace.of_trace warm)

(* ---- key sensitivity ---- *)

let test_digest_sensitivity () =
  let wl = gzip () in
  let ts = make_store () in
  let d ?(program = wl.Workload.program) ?(setup = wl.Workload.setup)
      ?(fast_forward = 2_000) ?(window = 1_000) () =
    Trace_store.digest ts program ~setup ~fast_forward ~window
  in
  let base = d () in
  Alcotest.(check string) "same key is stable" base (d ());
  Alcotest.(check bool) "fast_forward keyed" false
    (base = d ~fast_forward:2_001 ());
  Alcotest.(check bool) "window keyed" false (base = d ~window:1_001 ());
  let other = Option.get (Pf_workloads.Suite.find "mcf") in
  Alcotest.(check bool) "program keyed" false
    (base = d ~program:other.Workload.program ());
  (* the setup is fingerprinted by effect, not by closure identity:
     a different closure with the same writes produces the same key,
     a closure with different writes a different one *)
  let same_effect m = wl.Workload.setup m in
  Alcotest.(check string) "setup keyed by effect" base (d ~setup:same_effect ());
  let different_effect m =
    wl.Workload.setup m;
    Machine.write_i64 m 0x4000 99L
  in
  Alcotest.(check bool) "setup writes change the key" false
    (base = d ~setup:different_effect ())

(* ---- corruption ---- *)

let test_corrupt_entry_is_a_miss () =
  let wl = gzip () in
  let ts = make_store () in
  let prep () =
    Trace_store.prepare ts wl.Workload.program ~setup:wl.Workload.setup
      ~fast_forward:wl.Workload.fast_forward ~window:2_000
  in
  let reference =
    reference_trace wl.Workload.program ~setup:wl.Workload.setup
      ~fast_forward:wl.Workload.fast_forward ~window:2_000
  in
  let cold = prep () in
  check_traces_equal "cold" reference cold;
  let digest =
    Trace_store.digest ts wl.Workload.program ~setup:wl.Workload.setup
      ~fast_forward:wl.Workload.fast_forward ~window:2_000
  in
  let path = Trace_store.path ts ~digest in
  let clobber s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let payload =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* truncation, checksum damage and a foreign format version all
     downgrade to a miss that re-prepares and repairs the entry *)
  List.iter
    (fun (what, garbage) ->
      clobber garbage;
      check_traces_equal what reference (prep ());
      Alcotest.(check string) (what ^ ": entry repaired") payload
        (let ic = open_in_bin path in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         s))
    [ ("truncated", String.sub payload 0 (String.length payload / 2));
      ("flipped byte",
       String.mapi (fun i c -> if i = 40 then Char.chr (Char.code c lxor 1) else c)
         payload);
      ("foreign version",
       (* bump the version field and re-checksum so only the version
          check can reject it *)
       let body =
         String.sub payload 0 (String.length payload - 16)
       in
       let b = Bytes.of_string body in
       Bytes.set_int32_le b 4 (Int32.of_int (Trace_store.format_version + 1));
       let body = Bytes.to_string b in
       body ^ Digest.string body);
      ("garbage", "not a trace at all") ]

(* ---- LRU cap ---- *)

let test_lru_cap () =
  let wl = gzip () in
  let ts = make_store ~cap:2 () in
  List.iter
    (fun window ->
      ignore
        (Trace_store.prepare ts wl.Workload.program ~setup:wl.Workload.setup
           ~fast_forward:wl.Workload.fast_forward ~window))
    [ 1_000; 1_100; 1_200 ];
  let s = Trace_store.stats ts in
  Alcotest.(check int) "capped" 2 s.Trace_store.entries;
  Alcotest.(check int) "one eviction" 1 s.Trace_store.evictions

(* ---- qcheck parity over the fuzz generators ---- *)

let parity_holds ~gen ~seed =
  let program =
    match gen with
    | `Mini ->
        (Pf_fuzz.Gen_mini.generate ~seed () |> Pf_mini.Compile.compile)
          .Pf_mini.Compile.program
    | `Asm -> Pf_fuzz.Gen_asm.generate ~seed
  in
  let setup _ = () in
  let fast_forward = seed mod 300 in
  let window = 1 + (seed mod 2_000) in
  let reference = reference_trace program ~setup ~fast_forward ~window in
  let ts = make_store () in
  let prep () = Trace_store.prepare ts program ~setup ~fast_forward ~window in
  let fail what =
    QCheck.Test.fail_reportf
      "seed %d (ff %d, window %d): %s differs from from-scratch preparation"
      seed fast_forward window what
  in
  let eq (a : Tracer.t) (b : Tracer.t) =
    a.Tracer.fast_forwarded = b.Tracer.fast_forwarded
    && a.Tracer.dyns = b.Tracer.dyns
  in
  if not (eq reference (prep ())) then fail "store miss";
  if not (eq reference (prep ())) then fail "store hit";
  (* a second miss of the same program at a later fast-forward point:
     the fingerprint memo hits, so this miss builds and sets up its own
     machine instead of reusing the fingerprinting one *)
  let shifted = fast_forward + 50 in
  let ref_shifted =
    reference_trace program ~setup ~fast_forward:shifted ~window
  in
  let got =
    Trace_store.prepare ts program ~setup ~fast_forward:shifted ~window
  in
  if not (eq ref_shifted got) then fail "shifted fast-forward miss";
  true

let prop_parity_mini =
  QCheck.Test.make
    ~name:"trace store is invisible on mini programs" ~count:5
    QCheck.(int_range 1 100_000)
    (fun seed -> parity_holds ~gen:`Mini ~seed)

let prop_parity_asm =
  QCheck.Test.make
    ~name:"trace store is invisible on asm programs" ~count:5
    QCheck.(int_range 1 100_000)
    (fun seed -> parity_holds ~gen:`Asm ~seed)

(* ---- every workload: Dyn streams, flat traces, full run records ---- *)

let test_all_workloads_parity () =
  let ts = make_store () in
  List.iter
    (fun name ->
      let wl = Option.get (Pf_workloads.Suite.find name) in
      let window = min 8_000 wl.Workload.window in
      let reference =
        Run.prepare wl.Workload.program ~setup:wl.Workload.setup
          ~fast_forward:wl.Workload.fast_forward ~window
      in
      let via_store () =
        Run.prepare ~store:ts wl.Workload.program ~setup:wl.Workload.setup
          ~fast_forward:wl.Workload.fast_forward ~window
      in
      let check_prep what (prep : Run.prepared) =
        check_traces_equal (name ^ " " ^ what) reference.Run.trace
          prep.Run.trace;
        if reference.Run.flat <> prep.Run.flat then
          Alcotest.failf "%s %s: flat trace differs" name what;
        (* the run record — metrics serialized exactly as reports and
           the run cache store them — must be byte-identical *)
        let record p =
          Json.to_string
            (Pf_report.Codec.metrics_to_json
               (Run.simulate p ~policy:Pf_core.Policy.Postdoms))
        in
        Alcotest.(check string)
          (name ^ " " ^ what ^ ": run record")
          (record reference) (record prep)
      in
      check_prep "store miss" (via_store ());
      check_prep "store hit" (via_store ()))
    Pf_workloads.Suite.names;
  let s = Trace_store.stats ts in
  let n = List.length Pf_workloads.Suite.names in
  Alcotest.(check int) "every workload missed once" n s.Trace_store.misses;
  Alcotest.(check int) "every workload hit once" n s.Trace_store.hits

(* ---- the sweep path: cold vs trace-store-warm run documents ---- *)

let test_sweep_parity () =
  let specs =
    [ Sweep.spec "gzip" Pf_core.Policy.Postdoms ~window:3_000;
      Sweep.spec "mcf" Pf_core.Policy.No_spawn ~window:3_000 ]
  in
  let plain, _ = Sweep.execute ~jobs:1 specs in
  let ts = make_store () in
  let cold, _ = Sweep.execute ~trace_store:ts ~jobs:1 specs in
  let warm, _ = Sweep.execute ~trace_store:ts ~jobs:1 specs in
  (* run records carry no timing except wall_s; zero it so the
     comparison is over the simulation results only *)
  let strip (r : Sweep.run) =
    Json.to_string (Sweep.run_to_json { r with Sweep.wall_s = 0. })
  in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "trace-store cold run record" (strip a)
        (strip b))
    plain cold;
  List.iter2
    (fun a b ->
      Alcotest.(check string) "trace-store warm run record" (strip a)
        (strip b))
    plain warm;
  Alcotest.(check bool) "the second sweep hit the store" true
    ((Trace_store.stats ts).Trace_store.hits > 0)

let suite =
  [ ( "trace_store",
      [ case "store hit round trip" test_store_hit_round_trip;
        case "digest sensitivity" test_digest_sensitivity;
        case "corrupt entries downgrade to misses" test_corrupt_entry_is_a_miss;
        case "LRU cap" test_lru_cap;
        Prop.to_alcotest prop_parity_mini;
        Prop.to_alcotest prop_parity_asm ] );
    ( "trace_store.parity",
      [ case "every workload, every path" test_all_workloads_parity;
        case "sweep records unchanged" test_sweep_parity ] ) ]
