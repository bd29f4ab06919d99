type t = {
  root : int;
  idom : int array; (* -1 = root or not in tree *)
  in_tree : bool array;
  children : int list array;
  dfs_in : int array; (* DFS entry/exit numbering for O(1) ancestor tests *)
  dfs_out : int array;
  depth_ : int array;
}

(* Cooper-Harvey-Kennedy: iterate idom over reverse postorder until fixed. *)
let compute_idom g =
  let n = Cfg.nblocks g in
  let order = Cfg.rpo g in
  let rpo_num = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_num.(b) <- i) order;
  let idom = Array.make n (-1) in
  let root = Cfg.entry g in
  idom.(root) <- root;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while rpo_num.(!f1) > rpo_num.(!f2) do f1 := idom.(!f1) done;
      while rpo_num.(!f2) > rpo_num.(!f1) do f2 := idom.(!f2) done
    done;
    !f1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> root then begin
          let processed_preds =
            List.filter (fun p -> rpo_num.(p) >= 0 && idom.(p) >= 0) (Cfg.preds g b)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      order
  done;
  idom.(root) <- -1;
  idom

let build g =
  let n = Cfg.nblocks g in
  let root = Cfg.entry g in
  let idom = compute_idom g in
  let in_tree = Array.make n false in
  in_tree.(root) <- true;
  Array.iteri (fun b d -> if d >= 0 then in_tree.(b) <- true) idom;
  let children = Array.make n [] in
  for b = n - 1 downto 0 do
    if idom.(b) >= 0 then children.(idom.(b)) <- b :: children.(idom.(b))
  done;
  let dfs_in = Array.make n (-1) and dfs_out = Array.make n (-1) in
  let depth_ = Array.make n (-1) in
  let clock = ref 0 in
  let rec dfs b d =
    dfs_in.(b) <- !clock;
    incr clock;
    depth_.(b) <- d;
    List.iter (fun c -> dfs c (d + 1)) children.(b);
    dfs_out.(b) <- !clock;
    incr clock
  in
  dfs root 0;
  { root; idom; in_tree; children; dfs_in; dfs_out; depth_ }

let dominators g = build g
let postdominators g = build (Cfg.reverse g)

let root t = t.root

let parent t b =
  if t.idom.(b) >= 0 then Some t.idom.(b) else None

let children t b = t.children.(b)

let in_tree t b = t.in_tree.(b)

let is_ancestor t a b =
  t.in_tree.(a) && t.in_tree.(b)
  && t.dfs_in.(a) <= t.dfs_in.(b)
  && t.dfs_out.(b) <= t.dfs_out.(a)

let strictly_dominates t a b = a <> b && is_ancestor t a b

let depth t b = if t.in_tree.(b) then Some t.depth_.(b) else None
