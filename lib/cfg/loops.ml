module Int_set = Set.Make (Int)

type loop = {
  header : int;
  body : int list;
  latches : int list;
  exit_edges : (int * int) list;
  depth : int;
  parent : int option;
}

type t = {
  all : loop list;
  innermost_of : loop option array;
  by_header : (int, loop) Hashtbl.t;
}

let is_back_edge dom (a, b) = Dominance.is_ancestor dom b a

(* Body of the natural loop of [header] with the given latches: header plus
   all blocks that reach a latch backwards without passing the header. *)
let natural_body g live header latches =
  let body = ref (Int_set.singleton header) in
  let rec go b =
    if live.(b) && not (Int_set.mem b !body) then begin
      body := Int_set.add b !body;
      List.iter go (Cfg.preds g b)
    end
  in
  List.iter go latches;
  !body

let detect g dom =
  let n = Cfg.nblocks g in
  let live = Cfg.reachable g in
  (* collect back edges grouped by header *)
  let latches_of = Hashtbl.create 7 in
  for a = 0 to n - 1 do
    if live.(a) then
      List.iter
        (fun b ->
          if is_back_edge dom (a, b) then
            Hashtbl.replace latches_of b (a :: (try Hashtbl.find latches_of b with Not_found -> [])))
        (Cfg.succs g a)
  done;
  let raw =
    Hashtbl.fold
      (fun header latches acc ->
        let body = natural_body g live header latches in
        (header, latches, body) :: acc)
      latches_of []
  in
  (* nesting: loop A encloses B when A's body contains B's header and A <> B *)
  let encloses (ha, _, ba) (hb, _, _) = ha <> hb && Int_set.mem hb ba in
  let depth_of_raw l =
    1 + List.length (List.filter (fun l' -> encloses l' l) raw)
  in
  let parent_of_raw l =
    let enclosing = List.filter (fun l' -> encloses l' l) raw in
    (* the immediate parent is the enclosing loop of maximal depth *)
    match enclosing with
    | [] -> None
    | _ ->
        let deepest =
          List.fold_left
            (fun best l' ->
              match best with
              | None -> Some l'
              | Some b -> if depth_of_raw l' > depth_of_raw b then Some l' else best)
            None enclosing
        in
        Option.map (fun (h, _, _) -> h) deepest
  in
  let finish ((header, latches, body) as l) =
    let exit_edges = ref [] in
    Int_set.iter
      (fun b ->
        List.iter
          (fun s -> if not (Int_set.mem s body) then exit_edges := (b, s) :: !exit_edges)
          (Cfg.succs g b))
      body;
    { header;
      body = Int_set.elements body;
      latches = List.sort compare latches;
      exit_edges = List.sort compare !exit_edges;
      depth = depth_of_raw l;
      parent = parent_of_raw l }
  in
  let all =
    raw |> List.map finish
    |> List.sort (fun a b -> compare (a.depth, a.header) (b.depth, b.header))
  in
  let innermost_of = Array.make n None in
  (* outermost first, so the deepest loop containing a block wins *)
  List.iter
    (fun l ->
      List.iter
        (fun b ->
          match innermost_of.(b) with
          | Some l' when l'.depth >= l.depth -> ()
          | _ -> innermost_of.(b) <- Some l)
        l.body)
    all;
  let by_header = Hashtbl.create 7 in
  List.iter (fun l -> Hashtbl.replace by_header l.header l) all;
  { all; innermost_of; by_header }

let loops t = t.all
let innermost t b = t.innermost_of.(b)
let headed_by t h = Hashtbl.find_opt t.by_header h
let depth_of t b = match t.innermost_of.(b) with Some l -> l.depth | None -> 0
let in_loop l b = List.mem b l.body
