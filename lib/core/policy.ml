type t =
  | No_spawn
  | Categories of Spawn_point.category list
  | Postdoms
  | Postdoms_minus of Spawn_point.category
  | Rec_pred
  | Dmt
  | Adaptive
  | Doacross

let select policy spawns =
  let keep categories =
    List.filter (fun s -> List.mem s.Spawn_point.category categories) spawns
  in
  match policy with
  | No_spawn -> []
  | Categories cs -> keep cs
  | Postdoms -> keep Spawn_point.postdom_categories
  | Postdoms_minus c ->
      keep (List.filter (fun c' -> c' <> c) Spawn_point.postdom_categories)
  | Rec_pred | Dmt -> []
  (* every static spawn point, loop-iteration spawns included: the
     safety filter decides per region how far to trust each one *)
  | Adaptive -> spawns
  (* DOACROSS: iteration-level spawning only — the loop back-edge spawn
     points; cross-iteration memory carries are handled by the engine's
     distance-aware sync plus the violation tracker *)
  | Doacross -> keep [ Spawn_point.Loop_iter ]

type dynamic_spawns = No_dynamic | Reconvergence | Dmt_heuristics

type 'levels speculation =
  | Speculate of dynamic_spawns
  | Safety_levels of 'levels
  | Near_carry_sync

type machine = One_task | Polyflow of { tracker : bool }
type descriptor = { speculation : unit speculation; machine : machine }

let descriptor =
  let polyflow ~tracker speculation =
    { speculation; machine = Polyflow { tracker } }
  in
  function
  | No_spawn -> { speculation = Speculate No_dynamic; machine = One_task }
  | Categories _ | Postdoms | Postdoms_minus _ ->
      polyflow ~tracker:false (Speculate No_dynamic)
  | Rec_pred -> polyflow ~tracker:false (Speculate Reconvergence)
  | Dmt -> polyflow ~tracker:false (Speculate Dmt_heuristics)
  | Adaptive -> polyflow ~tracker:true (Safety_levels ())
  | Doacross -> polyflow ~tracker:true Near_carry_sync

let uses_safety_filter p = (descriptor p).speculation = Safety_levels ()

let name = function
  | No_spawn -> "superscalar"
  | Categories cs ->
      String.concat "+" (List.map Spawn_point.category_name cs)
  | Postdoms -> "postdoms"
  | Postdoms_minus c -> "postdoms-" ^ Spawn_point.category_name c
  | Rec_pred -> "rec_pred"
  | Dmt -> "dmt"
  | Adaptive -> "adaptive"
  | Doacross -> "doacross"

(* the names that parse as a whole to a policy other than a category
   set; every category name parses too (Categories), and combines with
   '+' or follows "postdoms-" *)
let whole_names =
  [ ("superscalar", No_spawn); ("baseline", No_spawn); ("postdoms", Postdoms);
    ("rec_pred", Rec_pred); ("dmt", Dmt); ("adaptive", Adaptive);
    ("doacross", Doacross) ]

let names =
  List.map fst whole_names
  @ List.map Spawn_point.category_name Spawn_point.all_categories

let syntax =
  String.concat ", " names
  ^ ", postdoms-<category>, or a + combination such as loop+loopFT"

let of_string s =
  let cat = Spawn_point.category_of_name in
  match List.assoc_opt s whole_names with
  | Some p -> Ok p
  | None when String.length s > 9 && String.sub s 0 9 = "postdoms-" -> (
      match cat (String.sub s 9 (String.length s - 9)) with
      | Some c -> Ok (Postdoms_minus c)
      | None -> Error (Printf.sprintf "unknown category in %S" s))
  | None -> (
      let cats = List.map cat (String.split_on_char '+' s) in
      if cats <> [] && List.for_all Option.is_some cats then
        Ok (Categories (List.filter_map Fun.id cats))
      else Error (Printf.sprintf "unknown policy %S (try: %s)" s syntax))

let figure9_policies =
  [ Categories [ Spawn_point.Loop_iter ];
    Categories [ Spawn_point.Loop_ft ];
    Categories [ Spawn_point.Proc_ft ];
    Categories [ Spawn_point.Hammock ];
    Categories [ Spawn_point.Other ];
    Postdoms ]

let figure10_policies =
  [ Categories [ Spawn_point.Loop_iter; Spawn_point.Loop_ft ];
    Categories [ Spawn_point.Loop_ft; Spawn_point.Proc_ft ];
    Categories [ Spawn_point.Loop_iter; Spawn_point.Proc_ft; Spawn_point.Loop_ft ];
    Postdoms ]

let figure11_policies =
  [ Postdoms_minus Spawn_point.Loop_ft;
    Postdoms_minus Spawn_point.Proc_ft;
    Postdoms_minus Spawn_point.Hammock;
    Postdoms_minus Spawn_point.Other ]

let figure12_policies = [ Rec_pred; Postdoms ]
