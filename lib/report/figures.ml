(* The paper's evaluation as data: the grid the figure sweep runs, and
   one row per table computed from its report document. See
   figures.mli. *)

module Policy = Pf_core.Policy
module Config = Pf_uarch.Config
module Metrics = Pf_uarch.Metrics
module Loopnest = Pf_workloads.Loopnest

(* ---- the grid ---- *)

let scaling_task_counts = [ 2; 4 ] (* 8 is plain postdoms *)
let tasks_label c = Printf.sprintf "postdoms@tasks=%d" c

(* the DESIGN.md engine refinements, each switched off under postdoms:
   (table row, run label, machine) *)
let ablation_variants =
  [ ("pure-ICount fetch", "postdoms@icount",
     { Config.polyflow with Config.biased_fetch = false });
    ("shared branch history", "postdoms@shared-history",
     { Config.polyflow with Config.shared_history = true });
    ("no ROB shares", "postdoms@no-rob-shares",
     { Config.polyflow with Config.rob_shares = false });
    ("no divert chains", "postdoms@no-divert-chains",
     { Config.polyflow with Config.divert_chains = false });
    ("no sp hint", "postdoms@no-sp-hint",
     { Config.polyflow with Config.sp_hint = false });
    ("no profitability feedback", "postdoms@no-feedback",
     { Config.polyflow with Config.feedback = false });
    ("spawn distance 4096", "postdoms@dist=4096",
     { Config.polyflow with Config.max_spawn_distance = 4096 });
    ("spawn distance 128", "postdoms@dist=128",
     { Config.polyflow with Config.max_spawn_distance = 128 }) ]

let sensitivity_windows = [ 15_000; 30_000; 60_000 ]
let sensitivity_workloads = [ "crafty"; "mcf"; "perlbmk"; "twolf" ]
let sensitivity_label policy window = Printf.sprintf "%s@win=%d" policy window

(* every policy of Figures 9-12 plus the related-work comparison,
   deduplicated by display name *)
let grid_policies =
  List.fold_left
    (fun acc p ->
      if List.exists (fun q -> Policy.name q = Policy.name p) acc then acc
      else acc @ [ p ])
    []
    Policy.(
      (No_spawn :: figure9_policies) @ figure10_policies @ figure11_policies
      @ figure12_policies @ [ Dmt; Adaptive ])

let specs ?window () =
  let per_workload w =
    List.map (fun p -> Sweep.spec ?window w p) grid_policies
    @ List.map
        (fun c ->
          Sweep.spec ?window w Policy.Postdoms
            ~label:(tasks_label c)
            ~config:{ Config.polyflow with Config.max_tasks = c })
        scaling_task_counts
    @ List.map
        (fun (_, label, config) ->
          Sweep.spec ?window w Policy.Postdoms ~label ~config)
        ablation_variants
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
                  ~label:(sensitivity_label "superscalar" window);
                Sweep.spec w Policy.Postdoms ~window
                  ~label:(sensitivity_label "postdoms" window) ])
            sensitivity_windows)
        sensitivity_workloads
  in
  List.concat_map per_workload Pf_workloads.Suite.spec_names @ sensitivity

let loopnest_policies = Policy.[ No_spawn; Postdoms; Doacross; Adaptive ]

(* every registered Loopnest member outside the carry-span sweep *)
let loopnest_variants =
  List.filter
    (fun n ->
      String.starts_with ~prefix:"loopnest." n
      && not (List.mem n Loopnest.sweep_names))
    Pf_workloads.Suite.names

let loopnest_specs ?window ?(nests = Loopnest.sweep_names @ loopnest_variants)
    () =
  List.concat_map
    (fun w -> List.map (fun p -> Sweep.spec ?window w p) loopnest_policies)
    nests

(* ---- the tables ---- *)

(* A table: the workloads it may show as rows, in order, and the labels
   it reads for each row it shows. [body] gets the rows the document
   holds. *)
type section = {
  title : string;
  rows : string list;
  reads : string list;
  body : Format.formatter -> Sweep.t -> string list -> unit;
}

let rule ppf = Format.fprintf ppf "%s\n" (String.make 98 '-')
let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* a section prints only when its runs are present, so these find them *)
let metrics doc w label =
  (Option.get (Table.find_run doc ~workload:w ~label)).Sweep.metrics

let speedup doc w label =
  Table.speedup_pct doc (Option.get (Table.find_run doc ~workload:w ~label))

(* the mean over a table's own rows *)
let avg doc rows label =
  Option.get (Table.average_speedup ~workloads:rows doc ~label)

let names = List.map Policy.name

(* the (name, value) pair whose value [better] prefers *)
let pick better init =
  List.fold_left
    (fun (bn, bv) (n, v) -> if better v bv then (n, v) else (bn, bv))
    init

(* a table over the SPEC kernels unless [rows] says otherwise *)
let section ?(rows = Pf_workloads.Suite.spec_names) title reads body =
  { title; rows; reads; body }

(* The Figure 9/10/12 layout ({!Table.print_speedup_table}), then
   [trailer]. *)
let speedup_section ?rows ?(trailer = fun _ _ _ -> ()) title labels =
  section ?rows title (Table.baseline_label :: labels)
    (fun ppf doc rows ->
      Table.print_speedup_table ~out:ppf ~workloads:rows ~labels doc;
      trailer ppf doc rows)

let figure9 =
  speedup_section
    "Figure 9: Individual heuristic policies for spawn points (speedup over \
     the 8-wide superscalar)"
    (names Policy.figure9_policies)
    ~trailer:(fun ppf doc rows ->
      (* the paper's headline: postdoms more than doubles the best
         heuristic *)
      let heuristic, h =
        pick ( > ) ("none", neg_infinity)
          (List.filter_map
             (fun p ->
               if p = Policy.Postdoms then None
               else Some (Policy.name p, avg doc rows (Policy.name p)))
             Policy.figure9_policies)
      in
      let postdoms = avg doc rows "postdoms" in
      Format.fprintf ppf
        "\nHeadline: postdoms averages %+.1f%%; best individual heuristic is \
         %s at %+.1f%% (ratio %.2fx; paper reports >2x)\n"
        postdoms heuristic h (postdoms /. h))

let figure10 =
  speedup_section "Figure 10: Combinations of heuristics for spawn points"
    (names Policy.figure10_policies)
    ~trailer:(fun ppf doc rows ->
      let combo =
        List.fold_left max neg_infinity
          (List.filter_map
             (fun p ->
               if p = Policy.Postdoms then None
               else Some (avg doc rows (Policy.name p)))
             Policy.figure10_policies)
      in
      let postdoms = avg doc rows "postdoms" in
      Format.fprintf ppf
        "\nHeadline: postdoms averages %+.1f%% vs best combination %+.1f%% \
         (%+.1f%% more; paper reports ~33%% more)\n"
        postdoms combo (postdoms -. combo))

let figure11 =
  let excluded = names Policy.figure11_policies in
  section
    "Figure 11: Loss in percent speedup when one category is excluded \
     (normalized to superscalar IPC)"
    ("superscalar" :: "postdoms" :: excluded)
    (fun ppf doc rows ->
      Format.fprintf ppf "%-10s" "benchmark";
      List.iter (Format.fprintf ppf " %17s") excluded;
      Format.fprintf ppf "\n";
      rule ppf;
      let losses =
        List.map
          (fun w ->
            let ipc label = Metrics.ipc (metrics doc w label) in
            let row =
              List.map
                (fun l -> 100. *. (ipc "postdoms" -. ipc l) /. ipc "superscalar")
                excluded
            in
            Format.fprintf ppf "%-10s" w;
            List.iter (Format.fprintf ppf " %+16.1f%%") row;
            Format.fprintf ppf "\n";
            row)
          rows
      in
      rule ppf;
      Format.fprintf ppf "%-10s" "Average";
      List.iteri
        (fun k _ ->
          Format.fprintf ppf " %+16.1f%%"
            (mean (List.map (fun row -> List.nth row k) losses)))
        excluded;
      Format.fprintf ppf "\n")

let figure12 =
  speedup_section
    "Figure 12: Spawning using reconvergence prediction (speedup over the \
     superscalar)"
    (names Policy.figure12_policies)
    ~trailer:(fun ppf _ _ ->
      Format.fprintf ppf
        "\nThe dynamic reconvergence predictor approximates compiler-generated \
         immediate postdominators;\nwarm-up and hard-to-identify \
         reconvergences account for the gap (Section 4.4).\n")

(* Section 5: the DMT fall-through heuristics against dynamic
   reconvergence prediction and compiler postdominators *)
let related_work =
  speedup_section
    "Related work (Section 5): DMT heuristics vs reconvergence prediction vs \
     postdominators"
    (names Policy.[ Dmt; Rec_pred; Postdoms ])
    ~trailer:(fun ppf _ _ ->
      Format.fprintf ppf
        "\nDMT approximates loop and procedure fall-throughs dynamically but \
         cannot\njump indirect jumps or hammocks; the paper's techniques \
         capture strictly\nmore spawn opportunities.\n")

(* how much of the postdoms speedup survives with fewer task contexts
   (Section 6 discusses the resource limits) *)
let task_scaling =
  let columns =
    List.map (fun c -> (c, tasks_label c)) scaling_task_counts
    @ [ (8, "postdoms") ]
  in
  section "Extension: postdoms speedup vs number of task contexts"
    ("superscalar" :: List.map snd columns)
    (fun ppf doc rows ->
      Format.fprintf ppf "%-10s" "benchmark";
      List.iter (fun (c, _) -> Format.fprintf ppf " %8d" c) columns;
      Format.fprintf ppf "\n";
      rule ppf;
      List.iter
        (fun w ->
          Format.fprintf ppf "%-10s" w;
          List.iter
            (fun (_, label) ->
              Format.fprintf ppf " %+7.1f%%" (speedup doc w label))
            columns;
          Format.fprintf ppf "\n")
        rows)

(* where the speedup comes from: Section 2.2 says different task types
   attack different stall sources (misprediction penalty, I-cache
   misses, outer-loop parallelism) *)
let stall_sources =
  section
    "Sources of speedup: retirement-stall cycles, superscalar vs postdoms"
    [ "superscalar"; "postdoms" ]
    (fun ppf doc rows ->
      Format.fprintf ppf "%-10s %25s %25s\n" "" "superscalar" "postdoms";
      Format.fprintf ppf "%-10s %12s %12s %12s %12s\n" "benchmark" "frontend"
        "exec" "frontend" "exec";
      rule ppf;
      List.iter
        (fun w ->
          let b = metrics doc w "superscalar" and p = metrics doc w "postdoms" in
          let frontend (m : Metrics.t) =
            m.Metrics.stall_frontend + m.Metrics.stall_divert
            + m.Metrics.stall_sched
          in
          Format.fprintf ppf "%-10s %12s %12s %12s %12s\n" w
            (Metrics.pretty_int (frontend b))
            (Metrics.pretty_int b.Metrics.stall_exec)
            (Metrics.pretty_int (frontend p))
            (Metrics.pretty_int p.Metrics.stall_exec))
        rows;
      Format.fprintf ppf
        "\nControl-equivalent spawning removes frontend stalls (mispredict \
         repair, taken-branch\nlimits, I-cache misses) and overlaps execution \
         latency with younger tasks' work.\n")

let ablations =
  let variants =
    ("full engine", "postdoms")
    :: List.map (fun (name, label, _) -> (name, label)) ablation_variants
  in
  section
    "Design ablations: postdoms average speedup with one refinement disabled"
    ("superscalar" :: List.map snd variants)
    (fun ppf doc rows ->
      Format.fprintf ppf "%-28s %12s %14s\n" "variant" "avg speedup"
        "worst bench";
      rule ppf;
      List.iter
        (fun (name, label) ->
          let worst, v =
            pick ( < ) ("", infinity)
              (List.map (fun w -> (w, speedup doc w label)) rows)
          in
          Format.fprintf ppf "%-28s %+11.1f%% %10s %+5.1f%%\n" name
            (avg doc rows label) worst v)
        variants)

(* Section 6: PolyFlow "allows each thread to spawn only a single
   successor, so PolyFlow can spawn only the outer-most branch of a
   nested if-then-else"; split spawning lets any task split its own
   region *)
let future_work =
  section
    "Future work (Section 6): one successor per task vs split spawning"
    [ "superscalar"; "postdoms"; "postdoms@split" ]
    (fun ppf doc rows ->
      Format.fprintf ppf "%-10s %14s %16s\n" "benchmark" "postdoms"
        "postdoms+split";
      rule ppf;
      let deltas =
        List.map
          (fun w ->
            let s1 = speedup doc w "postdoms" in
            let s2 = speedup doc w "postdoms@split" in
            Format.fprintf ppf "%-10s %+13.1f%% %+15.1f%%\n" w s1 s2;
            s2 -. s1)
          rows
      in
      Format.fprintf ppf
        "\nAverage gain from spawning past nested hammocks: %+.1f points\n"
        (mean deltas))

(* the postdoms result at other window lengths (the paper simulates
   100M instructions), each against a superscalar run of its own
   window *)
let window_sensitivity =
  section ~rows:sensitivity_workloads
    "Window-size sensitivity: postdoms speedup vs window length"
    (List.concat_map
       (fun n ->
         [ sensitivity_label "superscalar" n; sensitivity_label "postdoms" n ])
       sensitivity_windows)
    (fun ppf doc rows ->
      Format.fprintf ppf "%-10s" "benchmark";
      List.iter (Format.fprintf ppf " %9d") sensitivity_windows;
      Format.fprintf ppf "\n";
      rule ppf;
      List.iter
        (fun w ->
          Format.fprintf ppf "%-10s" w;
          List.iter
            (fun n ->
              Format.fprintf ppf " %+8.1f%%"
                (Metrics.speedup_pct
                   ~baseline:(metrics doc w (sensitivity_label "superscalar" n))
                   (metrics doc w (sensitivity_label "postdoms" n))))
            sensitivity_windows;
          Format.fprintf ppf "\n")
        rows)

let loopnest_labels = names (List.tl loopnest_policies)

let loopnest_distance =
  section ~rows:Loopnest.sweep_names
    "Dependence-distance figure: speedup over the superscalar vs carry span \
     (unit stride, depth 1)"
    (names loopnest_policies)
    (fun ppf doc rows ->
      Format.fprintf ppf "%-22s %8s" "nest" "span";
      List.iter (Format.fprintf ppf " %12s") loopnest_labels;
      Format.fprintf ppf "\n";
      rule ppf;
      let span = List.combine Loopnest.sweep_names Loopnest.distances in
      List.iter
        (fun w ->
          Format.fprintf ppf "%-22s %8d" w (List.assoc w span);
          List.iter
            (fun label -> Format.fprintf ppf " %+11.1f%%" (speedup doc w label))
            loopnest_labels;
          Format.fprintf ppf "\n")
        rows;
      Format.fprintf ppf
        "\nAt span 0 every iteration is independent (DOALL): back-edge tasks \
         overlap whole\niterations. Each extra unit of span serializes one \
         more predecessor's store into\nthe iteration, so the DOACROSS win \
         decays toward superscalar parity.\n")

let loopnest_variant =
  speedup_section ~rows:loopnest_variants
    "Stride and depth variants (carry span 2): speedup over the superscalar"
    loopnest_labels

let sections =
  [ figure9; figure10; figure11; figure12; related_work; task_scaling;
    stall_sources; ablations; future_work; window_sensitivity;
    loopnest_distance; loopnest_variant ]

let print ppf doc =
  let held = Table.workloads doc in
  List.iter
    (fun s ->
      let rows = List.filter (fun w -> List.mem w held) s.rows in
      let complete w =
        List.for_all
          (fun label -> Table.find_run doc ~workload:w ~label <> None)
          s.reads
      in
      if rows <> [] && List.for_all complete rows then begin
        let bar = String.make 98 '=' in
        Format.fprintf ppf "\n%s\n%s\n%s\n" bar s.title bar;
        s.body ppf doc rows
      end)
    sections;
  Format.pp_print_flush ppf ()
