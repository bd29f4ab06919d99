(* Circular stack: pushes beyond [depth] overwrite the oldest entries,
   like hardware return-address stacks. *)

type t = {
  entries : int array;
  depth : int;
  mutable top : int;  (* index of next free slot *)
  mutable count : int;
}

let create ?(depth = 32) () =
  { entries = Array.make depth 0; depth; top = 0; count = 0 }

let push t return_pc =
  t.entries.(t.top) <- return_pc;
  t.top <- (t.top + 1) mod t.depth;
  t.count <- min t.depth (t.count + 1)

let pop t =
  if t.count = 0 then -1
  else begin
    t.top <- (t.top + t.depth - 1) mod t.depth;
    t.count <- t.count - 1;
    t.entries.(t.top)
  end

let copy t =
  { entries = Array.copy t.entries; depth = t.depth; top = t.top; count = t.count }
