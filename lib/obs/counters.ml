type counter = { cname : string; mutable v : int }
type t = { mutable rev : counter list }

let create () = { rev = [] }

let make t name =
  match List.find_opt (fun c -> c.cname = name) t.rev with
  | Some c -> c
  | None ->
      let c = { cname = name; v = 0 } in
      t.rev <- c :: t.rev;
      c

let incr c = c.v <- c.v + 1

let add c n =
  if n < 0 then invalid_arg "Counters.add: negative amount";
  c.v <- c.v + n

let value c = c.v
let to_alist t = List.rev_map (fun c -> (c.cname, c.v)) t.rev

let find t name =
  Option.map (fun c -> c.v) (List.find_opt (fun c -> c.cname = name) t.rev)

let to_json t =
  Pf_json.Json.Obj
    (List.map (fun (n, v) -> (n, Pf_json.Json.Int v)) (to_alist t))
