type t = (int, int) Hashtbl.t

let create () : t = Hashtbl.create 64

let predict t ~pc =
  match Hashtbl.find t pc with v -> v | exception Not_found -> -1

let update t ~pc ~target = Hashtbl.replace t pc target
