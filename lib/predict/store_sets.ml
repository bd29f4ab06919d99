type entry = {
  mutable confidence : int; (* saturating; >= threshold means synchronise *)
  mutable partner : int;    (* last violating store pc, for diagnostics *)
}

type t = {
  loads : (int, entry) Hashtbl.t;
  sync_threshold : int;
}

let create ?(sync_threshold = 1) () =
  { loads = Hashtbl.create 64; sync_threshold }

let predict_sync t ~load_pc =
  match Hashtbl.find_opt t.loads load_pc with
  | Some e -> e.confidence >= t.sync_threshold
  | None -> false

let train_violation t ~load_pc ~store_pc =
  match Hashtbl.find_opt t.loads load_pc with
  | Some e ->
      e.confidence <- min 8 (e.confidence + 2);
      e.partner <- store_pc
  | None ->
      Hashtbl.replace t.loads load_pc { confidence = 2; partner = store_pc }

let train_no_conflict t ~load_pc =
  match Hashtbl.find_opt t.loads load_pc with
  | Some e -> e.confidence <- max 0 (e.confidence - 1)
  | None -> ()

let synced_loads t =
  Hashtbl.fold
    (fun _ e acc -> if e.confidence >= t.sync_threshold then acc + 1 else acc)
    t.loads 0
