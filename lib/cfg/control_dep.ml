type t = {
  dependents : int list array;
  controllers : int list array;
}

let dedup_sort l = List.sort_uniq compare l

(* For each edge (a, b) where a is not postdominated by b, walk the
   postdominator tree from b up to (but excluding) ipostdom(a); each node
   visited is control dependent on a. *)
let compute g pdom =
  let n = Cfg.nblocks g in
  let live = Cfg.reachable g in
  let dependents = Array.make n [] and controllers = Array.make n [] in
  for a = 0 to n - 1 do
    if live.(a) then
    List.iter
      (fun b ->
        if Dominance.in_tree pdom b && not (Dominance.strictly_dominates pdom b a)
        then begin
          let stop = Dominance.parent pdom a in
          let rec walk x =
            if Some x <> stop && x >= 0 then begin
              dependents.(a) <- x :: dependents.(a);
              controllers.(x) <- a :: controllers.(x);
              match Dominance.parent pdom x with
              | Some p -> walk p
              | None -> ()
            end
          in
          walk b
        end)
      (Cfg.succs g a)
  done;
  { dependents = Array.map dedup_sort dependents;
    controllers = Array.map dedup_sort controllers }

let dependents t a = t.dependents.(a)
let controllers t x = t.controllers.(x)
