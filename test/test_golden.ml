(* Golden parity: the engine's metrics, byte for byte.

   The expected strings below were recorded from the engine BEFORE the
   hot-loop overhaul (shared flat traces, index-based ready queues, O(1)
   task ownership) — commit 29d07c8 — for one policy per policy class
   plus the config variants that exercise split spawning and the ROB
   share caps. The overhaul is a pure restructuring: any metric drift,
   in any counter, is a bug. Keep these lines verbatim; re-record them
   only for a change that intentionally alters timing behaviour, bump
   [Engine.timing_version] with them (see [golden_digests] below), and
   say so in the commit. *)

open Pf_uarch

let window = 4_000

(* label, policy, config override (None = Sweep's per-policy default) *)
let cases =
  [ ("superscalar", Pf_core.Policy.No_spawn, None);
    ("postdoms", Pf_core.Policy.Postdoms, None);
    ( "loopFT+procFT",
      Pf_core.Policy.Categories
        [ Pf_core.Spawn_point.Loop_ft; Pf_core.Spawn_point.Proc_ft ],
      None );
    ( "postdoms-hammock",
      Pf_core.Policy.Postdoms_minus Pf_core.Spawn_point.Hammock,
      None );
    ("rec_pred", Pf_core.Policy.Rec_pred, None);
    ("dmt", Pf_core.Policy.Dmt, None);
    ( "postdoms@split",
      Pf_core.Policy.Postdoms,
      Some { Config.polyflow with Config.split_spawning = true } );
    ( "postdoms@no-rob-shares",
      Pf_core.Policy.Postdoms,
      Some { Config.polyflow with Config.rob_shares = false } );
    (* the event-skipping debug flag: stepping cycle by cycle must give
       the same numbers as skipping to the next event, so these lines
       are verbatim copies of the plain postdoms goldens *)
    ( "postdoms@no-event-skip",
      Pf_core.Policy.Postdoms,
      Some { Config.polyflow with Config.no_event_skip = true } );
    (* three-level adaptive speculation with the memory-dependence
       tracker on (its per-policy default config) — recorded when the
       subsystem landed *)
    ("adaptive", Pf_core.Policy.Adaptive, None);
    (* back-edge-only spawning with distance-aware memory sync (its
       per-policy default, Config.doacross) — recorded when the
       loop-nest family landed *)
    ("doacross", Pf_core.Policy.Doacross, None) ]

let golden =
  [ "gzip|superscalar|{\"instructions\":4000,\"cycles\":2400,\"ipc\":1.6666666666666667,\"branch_mispredicts\":66,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":0,\"tasks_spawned\":0,\"max_live_tasks\":1,\"l1i_misses\":4,\"l1d_misses\":10,\"l2_misses\":10,\"stall_frontend\":583,\"stall_divert\":0,\"stall_sched\":55,\"stall_exec\":758}";
    "gzip|postdoms|{\"instructions\":4000,\"cycles\":1881,\"ipc\":2.126528442317916,\"branch_mispredicts\":62,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"other\",\"count\":15},{\"category\":\"hammock\",\"count\":41}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":36,\"tasks_spawned\":56,\"max_live_tasks\":8,\"l1i_misses\":4,\"l1d_misses\":10,\"l2_misses\":10,\"stall_frontend\":470,\"stall_divert\":0,\"stall_sched\":33,\"stall_exec\":591}";
    "gzip|loopFT+procFT|{\"instructions\":4000,\"cycles\":2309,\"ipc\":1.7323516673884798,\"branch_mispredicts\":61,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"loopFT\",\"count\":6}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":18,\"tasks_spawned\":6,\"max_live_tasks\":2,\"l1i_misses\":4,\"l1d_misses\":10,\"l2_misses\":10,\"stall_frontend\":562,\"stall_divert\":0,\"stall_sched\":51,\"stall_exec\":728}";
    "gzip|postdoms-hammock|{\"instructions\":4000,\"cycles\":1998,\"ipc\":2.002002002002002,\"branch_mispredicts\":56,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"other\",\"count\":16}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":39,\"tasks_spawned\":16,\"max_live_tasks\":6,\"l1i_misses\":4,\"l1d_misses\":10,\"l2_misses\":10,\"stall_frontend\":493,\"stall_divert\":0,\"stall_sched\":38,\"stall_exec\":664}";
    "gzip|rec_pred|{\"instructions\":4000,\"cycles\":2114,\"ipc\":1.8921475875118259,\"branch_mispredicts\":63,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"other\",\"count\":15}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":36,\"tasks_spawned\":15,\"max_live_tasks\":3,\"l1i_misses\":4,\"l1d_misses\":10,\"l2_misses\":10,\"stall_frontend\":518,\"stall_divert\":0,\"stall_sched\":43,\"stall_exec\":701}";
    "gzip|dmt|{\"instructions\":4000,\"cycles\":2309,\"ipc\":1.7323516673884798,\"branch_mispredicts\":61,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"loopFT\",\"count\":6}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":18,\"tasks_spawned\":6,\"max_live_tasks\":2,\"l1i_misses\":4,\"l1d_misses\":10,\"l2_misses\":10,\"stall_frontend\":562,\"stall_divert\":0,\"stall_sched\":51,\"stall_exec\":728}";
    "gzip|postdoms@split|{\"instructions\":4000,\"cycles\":1881,\"ipc\":2.126528442317916,\"branch_mispredicts\":62,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"other\",\"count\":15},{\"category\":\"hammock\",\"count\":41}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":36,\"tasks_spawned\":56,\"max_live_tasks\":8,\"l1i_misses\":4,\"l1d_misses\":10,\"l2_misses\":10,\"stall_frontend\":470,\"stall_divert\":0,\"stall_sched\":33,\"stall_exec\":591}";
    "gzip|postdoms@no-rob-shares|{\"instructions\":4000,\"cycles\":1926,\"ipc\":2.0768431983385254,\"branch_mispredicts\":69,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"other\",\"count\":14},{\"category\":\"hammock\",\"count\":40}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":33,\"tasks_spawned\":54,\"max_live_tasks\":8,\"l1i_misses\":4,\"l1d_misses\":10,\"l2_misses\":10,\"stall_frontend\":472,\"stall_divert\":0,\"stall_sched\":34,\"stall_exec\":622}";
    "gzip|postdoms@no-event-skip|{\"instructions\":4000,\"cycles\":1881,\"ipc\":2.126528442317916,\"branch_mispredicts\":62,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"other\",\"count\":15},{\"category\":\"hammock\",\"count\":41}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":36,\"tasks_spawned\":56,\"max_live_tasks\":8,\"l1i_misses\":4,\"l1d_misses\":10,\"l2_misses\":10,\"stall_frontend\":470,\"stall_divert\":0,\"stall_sched\":33,\"stall_exec\":591}";
    "gzip|adaptive|{\"instructions\":4000,\"cycles\":1457,\"ipc\":2.7453671928620453,\"branch_mispredicts\":59,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"loop\",\"count\":40},{\"category\":\"hammock\",\"count\":19}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":210,\"tasks_spawned\":59,\"max_live_tasks\":8,\"l1i_misses\":4,\"l1d_misses\":10,\"l2_misses\":10,\"stall_frontend\":365,\"stall_divert\":0,\"stall_sched\":14,\"stall_exec\":451}";
    "gzip|doacross|{\"instructions\":4000,\"cycles\":1748,\"ipc\":2.288329519450801,\"branch_mispredicts\":78,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"loop\",\"count\":57}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":345,\"tasks_spawned\":57,\"max_live_tasks\":8,\"l1i_misses\":4,\"l1d_misses\":10,\"l2_misses\":10,\"stall_frontend\":449,\"stall_divert\":0,\"stall_sched\":30,\"stall_exec\":556}";
    "mcf|superscalar|{\"instructions\":4000,\"cycles\":11043,\"ipc\":0.3622204111201666,\"branch_mispredicts\":164,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":0,\"tasks_spawned\":0,\"max_live_tasks\":1,\"l1i_misses\":2,\"l1d_misses\":130,\"l2_misses\":113,\"stall_frontend\":955,\"stall_divert\":0,\"stall_sched\":147,\"stall_exec\":8554}";
    "mcf|postdoms|{\"instructions\":4000,\"cycles\":5988,\"ipc\":0.6680026720106881,\"branch_mispredicts\":164,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"hammock\",\"count\":144}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":690,\"tasks_spawned\":144,\"max_live_tasks\":8,\"l1i_misses\":2,\"l1d_misses\":130,\"l2_misses\":113,\"stall_frontend\":635,\"stall_divert\":0,\"stall_sched\":89,\"stall_exec\":4238}";
    "mcf|loopFT+procFT|{\"instructions\":4000,\"cycles\":11043,\"ipc\":0.3622204111201666,\"branch_mispredicts\":164,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":0,\"tasks_spawned\":0,\"max_live_tasks\":1,\"l1i_misses\":2,\"l1d_misses\":130,\"l2_misses\":113,\"stall_frontend\":955,\"stall_divert\":0,\"stall_sched\":147,\"stall_exec\":8554}";
    "mcf|postdoms-hammock|{\"instructions\":4000,\"cycles\":11043,\"ipc\":0.3622204111201666,\"branch_mispredicts\":164,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":0,\"tasks_spawned\":0,\"max_live_tasks\":1,\"l1i_misses\":2,\"l1d_misses\":130,\"l2_misses\":113,\"stall_frontend\":955,\"stall_divert\":0,\"stall_sched\":147,\"stall_exec\":8554}";
    "mcf|rec_pred|{\"instructions\":4000,\"cycles\":5976,\"ipc\":0.6693440428380187,\"branch_mispredicts\":159,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"other\",\"count\":137}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":676,\"tasks_spawned\":137,\"max_live_tasks\":8,\"l1i_misses\":2,\"l1d_misses\":130,\"l2_misses\":113,\"stall_frontend\":627,\"stall_divert\":0,\"stall_sched\":88,\"stall_exec\":4243}";
    "mcf|dmt|{\"instructions\":4000,\"cycles\":11043,\"ipc\":0.3622204111201666,\"branch_mispredicts\":164,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":0,\"tasks_spawned\":0,\"max_live_tasks\":1,\"l1i_misses\":2,\"l1d_misses\":130,\"l2_misses\":113,\"stall_frontend\":955,\"stall_divert\":0,\"stall_sched\":147,\"stall_exec\":8554}";
    "mcf|postdoms@split|{\"instructions\":4000,\"cycles\":5988,\"ipc\":0.6680026720106881,\"branch_mispredicts\":164,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"hammock\",\"count\":144}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":690,\"tasks_spawned\":144,\"max_live_tasks\":8,\"l1i_misses\":2,\"l1d_misses\":130,\"l2_misses\":113,\"stall_frontend\":635,\"stall_divert\":0,\"stall_sched\":89,\"stall_exec\":4238}";
    "mcf|postdoms@no-rob-shares|{\"instructions\":4000,\"cycles\":5988,\"ipc\":0.6680026720106881,\"branch_mispredicts\":164,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"hammock\",\"count\":144}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":690,\"tasks_spawned\":144,\"max_live_tasks\":8,\"l1i_misses\":2,\"l1d_misses\":130,\"l2_misses\":113,\"stall_frontend\":635,\"stall_divert\":0,\"stall_sched\":89,\"stall_exec\":4238}";
    "mcf|postdoms@no-event-skip|{\"instructions\":4000,\"cycles\":5988,\"ipc\":0.6680026720106881,\"branch_mispredicts\":164,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"hammock\",\"count\":144}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":690,\"tasks_spawned\":144,\"max_live_tasks\":8,\"l1i_misses\":2,\"l1d_misses\":130,\"l2_misses\":113,\"stall_frontend\":635,\"stall_divert\":0,\"stall_sched\":89,\"stall_exec\":4238}";
    "mcf|adaptive|{\"instructions\":4000,\"cycles\":10417,\"ipc\":0.3839877123932034,\"branch_mispredicts\":138,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"loop\",\"count\":97},{\"category\":\"hammock\",\"count\":4}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":1141,\"tasks_spawned\":101,\"max_live_tasks\":8,\"l1i_misses\":2,\"l1d_misses\":130,\"l2_misses\":113,\"stall_frontend\":604,\"stall_divert\":0,\"stall_sched\":80,\"stall_exec\":8467}";
    "mcf|doacross|{\"instructions\":4000,\"cycles\":10002,\"ipc\":0.39992001599680066,\"branch_mispredicts\":134,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"loop\",\"count\":96}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":1128,\"tasks_spawned\":96,\"max_live_tasks\":8,\"l1i_misses\":2,\"l1d_misses\":130,\"l2_misses\":113,\"stall_frontend\":553,\"stall_divert\":0,\"stall_sched\":68,\"stall_exec\":8156}" ]

(* The loop-nest family (lib/workloads/loopnest.ml): one DOALL nest and
   one far-carry nest, under the two tracker-backed policies. Recorded
   when the family landed. *)
let loopnest_cases =
  [ ("doacross", Pf_core.Policy.Doacross, None);
    ("adaptive", Pf_core.Policy.Adaptive, None) ]

let loopnest_golden =
  [ "loopnest.d0.unit.n1|doacross|{\"instructions\":4000,\"cycles\":1410,\"ipc\":2.8368794326241136,\"branch_mispredicts\":110,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"loop\",\"count\":49}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":115,\"tasks_spawned\":49,\"max_live_tasks\":8,\"l1i_misses\":4,\"l1d_misses\":18,\"l2_misses\":14,\"stall_frontend\":372,\"stall_divert\":0,\"stall_sched\":11,\"stall_exec\":417}";
    "loopnest.d0.unit.n1|adaptive|{\"instructions\":4000,\"cycles\":1360,\"ipc\":2.9411764705882355,\"branch_mispredicts\":110,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"loop\",\"count\":49},{\"category\":\"hammock\",\"count\":5}],\"squashes\":0,\"squashed_instrs\":0,\"diverted\":152,\"tasks_spawned\":54,\"max_live_tasks\":8,\"l1i_misses\":4,\"l1d_misses\":18,\"l2_misses\":14,\"stall_frontend\":367,\"stall_divert\":0,\"stall_sched\":10,\"stall_exec\":383}";
    "loopnest.d4.unit.n1|doacross|{\"instructions\":4000,\"cycles\":2393,\"ipc\":1.671541997492687,\"branch_mispredicts\":86,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"loop\",\"count\":5}],\"squashes\":2,\"squashed_instrs\":134,\"diverted\":123,\"tasks_spawned\":5,\"max_live_tasks\":5,\"l1i_misses\":6,\"l1d_misses\":13,\"l2_misses\":14,\"stall_frontend\":565,\"stall_divert\":0,\"stall_sched\":31,\"stall_exec\":765}";
    "loopnest.d4.unit.n1|adaptive|{\"instructions\":4000,\"cycles\":1943,\"ipc\":2.058672156459084,\"branch_mispredicts\":86,\"indirect_mispredicts\":0,\"return_mispredicts\":0,\"spawns\":[{\"category\":\"loop\",\"count\":5},{\"category\":\"hammock\",\"count\":61}],\"squashes\":3,\"squashed_instrs\":201,\"diverted\":751,\"tasks_spawned\":66,\"max_live_tasks\":8,\"l1i_misses\":6,\"l1d_misses\":13,\"l2_misses\":14,\"stall_frontend\":484,\"stall_divert\":0,\"stall_sched\":13,\"stall_exec\":661}" ]

let prepare name =
  let wl = Option.get (Pf_workloads.Suite.find name) in
  Run.prepare wl.Pf_workloads.Workload.program
    ~setup:wl.Pf_workloads.Workload.setup
    ~fast_forward:wl.Pf_workloads.Workload.fast_forward ~window

let actual_line prep workload (label, policy, config) =
  let metrics =
    match config with
    | Some config -> Run.simulate ~config prep ~policy
    | None -> Run.simulate prep ~policy
  in
  Printf.sprintf "%s|%s|%s" workload label
    (Pf_report.Json.to_string (Pf_report.Codec.metrics_to_json metrics))

let check_against ~cases ~golden workload () =
  let prep = prepare workload in
  let prefix = workload ^ "|" in
  let expected =
    List.filter
      (fun l -> String.length l > String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
      golden
  in
  Alcotest.(check int)
    (workload ^ " golden case count")
    (List.length cases) (List.length expected);
  List.iter2
    (fun case exp ->
      let label, _, _ = case in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s metrics" workload label)
        exp
        (actual_line prep workload case))
    cases expected

let check_workload = check_against ~cases ~golden
let check_loopnest = check_against ~cases:loopnest_cases ~golden:loopnest_golden

(* The MD5 of [golden @ loopnest_golden], joined by newlines, for each
   [Engine.timing_version] they were recorded under. Re-recording a
   golden line is a timing change, and only a [timing_version] bump
   stops the run cache from replaying results recorded under the old
   timing: so a re-record adds a new version and a new entry here, and
   never edits an old entry. The pin catches only what the gzip, mcf
   and loop-nest goldens above see; a timing change they miss still
   needs its bump by hand. *)
let golden_digests = [ ("engine-3", "9b96370032d1131b19f16a428b405727") ]

let test_goldens_pinned () =
  let digest =
    Digest.to_hex (Digest.string (String.concat "\n" (golden @ loopnest_golden)))
  in
  match List.assoc_opt Engine.timing_version golden_digests with
  | None ->
      Alcotest.failf
        "timing_version %s has no golden digest; add (%S, %S) to \
         golden_digests"
        Engine.timing_version Engine.timing_version digest
  | Some pinned ->
      Alcotest.(check string)
        ("golden lines recorded under " ^ Engine.timing_version)
        pinned digest

let suite =
  [ ( "golden",
      [ Alcotest.test_case "gzip parity vs recorded goldens" `Quick
          (check_workload "gzip");
        Alcotest.test_case "mcf parity vs recorded goldens" `Quick
          (check_workload "mcf");
        Alcotest.test_case "loopnest DOALL nest vs recorded goldens" `Quick
          (check_loopnest "loopnest.d0.unit.n1");
        Alcotest.test_case "loopnest far-carry nest vs recorded goldens" `Quick
          (check_loopnest "loopnest.d4.unit.n1");
        Alcotest.test_case "goldens pinned to timing_version" `Quick
          test_goldens_pinned ] ) ]
