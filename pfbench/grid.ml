(* The spec sets the benchmark's workloads run.

   [figure] is the paper's full grid exactly as bench/main.exe builds
   it (bench/main.ml's [full_specs]); it is repeated here because that
   module is an executable with command-line side effects, not a
   library. Nothing compares the two lists: expected/figure.digests
   pins this copy only against itself, so a change to bench/main.ml's
   grid must be made here by hand too, with the digests regenerated. *)

open Pf_uarch
module Sweep = Pf_report.Sweep
module Policy = Pf_core.Policy

let scaling_task_counts = [ 2; 4 ]

let ablation_configs =
  [ ("postdoms@icount", { Config.polyflow with Config.biased_fetch = false });
    ("postdoms@shared-history", { Config.polyflow with Config.shared_history = true });
    ("postdoms@no-rob-shares", { Config.polyflow with Config.rob_shares = false });
    ("postdoms@no-divert-chains", { Config.polyflow with Config.divert_chains = false });
    ("postdoms@no-sp-hint", { Config.polyflow with Config.sp_hint = false });
    ("postdoms@no-feedback", { Config.polyflow with Config.feedback = false });
    ("postdoms@dist=4096", { Config.polyflow with Config.max_spawn_distance = 4096 });
    ("postdoms@dist=128", { Config.polyflow with Config.max_spawn_distance = 128 }) ]

let sensitivity_windows = [ 15_000; 30_000; 60_000 ]
let sensitivity_workloads = [ "crafty"; "mcf"; "perlbmk"; "twolf" ]

let grid_policies =
  let all =
    Policy.(
      (No_spawn :: figure9_policies) @ figure10_policies @ figure11_policies
      @ figure12_policies @ [ Dmt; Adaptive ])
  in
  List.fold_left
    (fun acc p ->
      if List.exists (fun q -> Policy.name q = Policy.name p) acc then acc
      else acc @ [ p ])
    [] all

(* [window] pins every cell's window (the smoke scale) and, as
   PF_BENCH_WINDOW does for bench/main.exe, drops the window-sensitivity
   cells it would make redundant *)
let figure ?window () =
  let per_workload w =
    List.map (fun p -> Sweep.spec ?window w p) grid_policies
    @ List.map
        (fun c ->
          Sweep.spec ?window w Policy.Postdoms
            ~label:(Printf.sprintf "postdoms@tasks=%d" c)
            ~config:{ Config.polyflow with Config.max_tasks = c })
        scaling_task_counts
    @ List.map
        (fun (label, config) -> Sweep.spec ?window w Policy.Postdoms ~label ~config)
        ablation_configs
    @ [ Sweep.spec ?window w Policy.Postdoms ~label:"postdoms@split"
          ~config:{ Config.polyflow with Config.split_spawning = true } ]
  in
  let sensitivity =
    if window <> None then []
    else
      List.concat_map
        (fun w ->
          List.concat_map
            (fun window ->
              [ Sweep.spec w Policy.No_spawn ~window
                  ~label:(Printf.sprintf "superscalar@win=%d" window);
                Sweep.spec w Policy.Postdoms ~window
                  ~label:(Printf.sprintf "postdoms@win=%d" window) ])
            sensitivity_windows)
        sensitivity_workloads
  in
  List.concat_map per_workload Pf_workloads.Suite.spec_names @ sensitivity

let loopnest_names =
  List.filter
    (fun n -> String.length n > 9 && String.sub n 0 9 = "loopnest.")
    Pf_workloads.Suite.names

let memspec_window = 100_000

(* the memory-speculation path: the tracker policies on every SPEC
   kernel, and the loop-nest family under its figure's four policies *)
let memspec ?(window = memspec_window) () =
  List.concat_map
    (fun w -> List.map (fun p -> Sweep.spec ~window w p) Policy.[ Adaptive; Doacross ])
    Pf_workloads.Suite.spec_names
  @ List.concat_map
      (fun w ->
        List.map
          (fun p -> Sweep.spec ~window w p)
          Policy.[ No_spawn; Postdoms; Doacross; Adaptive ])
      loopnest_names

let serve_window = 4_000
let hit_policies = Policy.[ No_spawn; Postdoms; Rec_pred ]

(* serve-mixed's hit set: populated at set-up, then 80% of the load *)
let hit_set ?(window = serve_window) () =
  List.concat_map
    (fun w -> List.map (fun p -> Sweep.spec ~window w p) hit_policies)
    Pf_workloads.Suite.spec_names

(* Fisher-Yates under an explicit state: the seed reorders a sweep's
   specs, which changes window first-use order and batch grouping but
   never a result *)
let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Suite.find builds the workload afresh on every call, so the default
   windows are read once *)
let default_windows =
  lazy
    (List.map
       (fun (w : Pf_workloads.Workload.t) -> (w.Pf_workloads.Workload.name, w.Pf_workloads.Workload.window))
       (Pf_workloads.Suite.all ()))

let window_of (s : Sweep.spec) =
  match s.Sweep.window with
  | Some w -> w
  | None -> List.assoc s.Sweep.workload (Lazy.force default_windows)

(* the key a digest line is filed under *)
let key ~workload ~label ~window = Printf.sprintf "%s %s %d" workload label window
let spec_key (s : Sweep.spec) =
  key ~workload:s.Sweep.workload ~label:s.Sweep.label ~window:(window_of s)
