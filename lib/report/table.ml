let baseline_label = "superscalar"

let dedup_in_order xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let workloads (t : Sweep.t) =
  dedup_in_order (List.map (fun r -> r.Sweep.workload) t.Sweep.runs)

let labels (t : Sweep.t) =
  dedup_in_order (List.map (fun r -> r.Sweep.label) t.Sweep.runs)

let find_run (t : Sweep.t) ~workload ~label =
  List.find_opt
    (fun r -> r.Sweep.workload = workload && r.Sweep.label = label)
    t.Sweep.runs

let baseline_exn t ~workload =
  match find_run t ~workload ~label:baseline_label with
  | Some b -> b
  | None -> raise Not_found

let speedup_pct t (r : Sweep.run) =
  let b = baseline_exn t ~workload:r.Sweep.workload in
  Pf_uarch.Metrics.speedup_pct ~baseline:b.Sweep.metrics r.Sweep.metrics

let average_speedup ?workloads:wls t ~label =
  let values =
    List.filter_map
      (fun workload ->
        match find_run t ~workload ~label with
        | Some r -> (
            match find_run t ~workload ~label:baseline_label with
            | Some _ -> Some (speedup_pct t r)
            | None -> None)
        | None -> None)
      (match wls with Some wls -> wls | None -> workloads t)
  in
  match values with
  | [] -> None
  | _ ->
      Some (List.fold_left ( +. ) 0. values /. float_of_int (List.length values))

let print_speedup_table ~out ~workloads:wls ~labels:lbls t =
  let longest init names =
    List.fold_left (fun acc n -> max acc (String.length n)) init names
  in
  let nw = longest 9 wls + 1 and cw = longest 9 lbls in
  let ipc_tag = "   (SS IPC)" in
  Format.fprintf out "%-*s" nw "benchmark";
  List.iter (fun l -> Format.fprintf out " %*s" cw l) lbls;
  Format.fprintf out "%s\n" ipc_tag;
  let width = nw + (List.length lbls * (cw + 1)) + String.length ipc_tag in
  Format.fprintf out "%s\n" (String.make width '-');
  let cell workload label =
    match find_run t ~workload ~label with
    | Some r -> Format.fprintf out " %+*.1f%%" (cw - 1) (speedup_pct t r)
    | None -> Format.fprintf out " %*s" cw "-"
  in
  List.iter
    (fun workload ->
      Format.fprintf out "%-*s" nw workload;
      List.iter (cell workload) lbls;
      (match find_run t ~workload ~label:baseline_label with
      | Some b ->
          Format.fprintf out "   (%.3f)" (Pf_uarch.Metrics.ipc b.Sweep.metrics)
      | None -> Format.fprintf out "   (-)");
      Format.fprintf out "\n")
    wls;
  Format.fprintf out "%s\n" (String.make width '-');
  Format.fprintf out "%-*s" nw "Average";
  List.iter
    (fun label ->
      match average_speedup ~workloads:wls t ~label with
      | Some avg -> Format.fprintf out " %+*.1f%%" (cw - 1) avg
      | None -> Format.fprintf out " %*s" cw "-")
    lbls;
  Format.fprintf out "\n"

let print_average_table ~out t =
  let lbls = List.filter (fun l -> l <> baseline_label) (labels t) in
  let lw =
    List.fold_left (fun acc l -> max acc (String.length l)) 5 lbls
  in
  Format.fprintf out "%-*s %12s %12s\n" lw "label" "avg speedup" "benchmarks";
  Format.fprintf out "%s\n" (String.make (lw + 26) '-');
  List.iter
    (fun label ->
      let n =
        List.length
          (List.filter (fun (r : Sweep.run) -> r.Sweep.label = label) t.Sweep.runs)
      in
      match average_speedup t ~label with
      | Some avg -> Format.fprintf out "%-*s %+11.1f%% %12d\n" lw label avg n
      | None -> Format.fprintf out "%-*s %12s %12d\n" lw label "-" n)
    lbls
