let default_label b = Printf.sprintf "B%d" b

let node ppf label b = Format.fprintf ppf "  n%d [label=\"%s\"];@," b (label b)

let cfg ?(label = default_label) ppf g =
  Format.fprintf ppf "@[<v>digraph cfg {@,";
  for b = 0 to Cfg.nblocks g - 1 do
    node ppf label b;
    List.iter (fun s -> Format.fprintf ppf "  n%d -> n%d;@," b s) (Cfg.succs g b)
  done;
  Format.fprintf ppf "}@]"
