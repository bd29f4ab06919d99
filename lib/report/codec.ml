open Pf_uarch

(* ---- metrics: walks of [Metrics.count_names] ---- *)

let spawn_to_json (c, n) =
  Json.Obj
    [ ("category", Json.String (Pf_core.Spawn_point.category_name c));
      ("count", Json.Int n) ]

(* the counts in list order, with the derived ipc after "cycles" and the
   spawn list in its record place, after "return_mispredicts" *)
let metrics_to_json (m : Metrics.t) =
  let counts = Metrics.counts m in
  Json.Obj
    (List.concat
       (List.mapi
          (fun i name ->
            (name, Json.Int counts.(i))
            ::
            (match name with
            | "cycles" -> [ ("ipc", Json.Float (Metrics.ipc m)) ]
            | "return_mispredicts" ->
                [ ("spawns", Json.List (List.map spawn_to_json m.spawns)) ]
            | _ -> []))
          Metrics.count_names))

let spawn_of_json j =
  let name = Json.to_str (Json.member "category" j) in
  match Pf_core.Spawn_point.category_of_name name with
  | Some c -> (c, Json.to_int (Json.member "count" j))
  | None -> raise (Json.Decode_error (Printf.sprintf "unknown spawn category %S" name))

let metrics_of_json j =
  let counts =
    List.map (fun name -> Json.to_int (Json.member name j)) Metrics.count_names
  in
  Metrics.of_counts (Array.of_list counts)
    (List.map spawn_of_json (Json.to_list (Json.member "spawns" j)))

(* ---- engine counters (Pf_obs.Counters dumps) ---- *)

let counters_to_json (cs : (string * int) list) =
  Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) cs)

let counters_of_json j =
  List.map (fun (n, v) -> (n, Json.to_int v)) (Json.to_obj j)

(* ---- config: walks of [Config.fields] ---- *)

let member_value (f : Config.field) v =
  if f.flag then Json.Bool (v = 1) else Json.Int v

let config_to_json (c : Config.t) =
  Json.Obj
    (List.filter_map
       (fun (f : Config.field) ->
         let v = f.get c in
         if f.presence = Non_default && v = f.get Config.superscalar then None
         else Some (f.name, member_value f v))
       Config.fields)

let config_of_json j =
  List.fold_left
    (fun c (f : Config.field) ->
      let bad msg =
        raise (Json.Decode_error (Printf.sprintf "%S: %s" f.name msg))
      in
      match
        if f.presence = Required then Some (Json.member f.name j)
        else Json.member_opt f.name j
      with
      | None -> c
      | Some v -> (
          match
            if f.flag then Bool.to_int (Json.to_bool v) else Json.to_int v
          with
          | v when f.presence = Constant && v <> f.get c ->
              bad ("must be " ^ Json.to_string (member_value f (f.get c)))
          | v -> f.set c v
          | exception Json.Decode_error msg -> bad msg))
    Config.superscalar Config.fields

(* ---- run records ----

   Defined below the run cache, which encodes exactly this record; the
   JSON form is a report document's "runs" element and a serve reply's
   "run" member. *)

type run = {
  workload : string;
  label : string;
  policy : string;
  config : Config.t;
  window : int;
  instructions : int;
  static_spawns : int;
  wall_s : float;
  metrics : Metrics.t;
  counters : (string * int) list;
}

let run_to_json r =
  Json.Obj
    [ ("workload", Json.String r.workload);
      ("label", Json.String r.label);
      ("policy", Json.String r.policy);
      ("window", Json.Int r.window);
      ("instructions", Json.Int r.instructions);
      ("static_spawns", Json.Int r.static_spawns);
      ("wall_s", Json.Float r.wall_s);
      ("config", config_to_json r.config);
      ("metrics", metrics_to_json r.metrics);
      ("counters", counters_to_json r.counters) ]

let run_of_json j =
  { workload = Json.to_str (Json.member "workload" j);
    label = Json.to_str (Json.member "label" j);
    policy = Json.to_str (Json.member "policy" j);
    window = Json.to_int (Json.member "window" j);
    instructions = Json.to_int (Json.member "instructions" j);
    static_spawns = Json.to_int (Json.member "static_spawns" j);
    wall_s = Json.to_float (Json.member "wall_s" j);
    config = config_of_json (Json.member "config" j);
    metrics = metrics_of_json (Json.member "metrics" j);
    (* additive schema-v1 field: absent in documents written before the
       counter registry existed *)
    counters =
      (match Json.member_opt "counters" j with
      | Some c -> counters_of_json c
      | None -> []) }

(* ---- CSV ---- *)

let metrics_csv_header =
  List.concat_map
    (fun name -> if name = "cycles" then [ name; "ipc" ] else [ name ])
    Metrics.count_names
  @ List.map
      (fun c -> "spawns_" ^ Pf_core.Spawn_point.category_name c)
      Pf_core.Spawn_point.all_categories

let metrics_csv_cells (m : Metrics.t) =
  let spawn_count c =
    List.fold_left
      (fun acc (c', n) -> if c' = c then acc + n else acc)
      0 m.Metrics.spawns
  in
  let counts = Metrics.counts m in
  List.concat
    (List.mapi
       (fun i name ->
         string_of_int counts.(i)
         :: (if name = "cycles" then [ Printf.sprintf "%.6f" (Metrics.ipc m) ]
             else []))
       Metrics.count_names)
  @ List.map
      (fun c -> string_of_int (spawn_count c))
      Pf_core.Spawn_point.all_categories
