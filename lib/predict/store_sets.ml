type t = {
  loads : (int, int) Hashtbl.t; (* load pc -> saturating confidence *)
  sync_threshold : int;
}

let create ?(sync_threshold = 1) () =
  { loads = Hashtbl.create 64; sync_threshold }

(* a load never trained does not synchronise, whatever the threshold *)
let predict_sync t ~load_pc =
  match Hashtbl.find_opt t.loads load_pc with
  | Some c -> c >= t.sync_threshold
  | None -> false

let train_violation t ~load_pc =
  let c = Option.value (Hashtbl.find_opt t.loads load_pc) ~default:0 in
  Hashtbl.replace t.loads load_pc (min 8 (c + 2))
