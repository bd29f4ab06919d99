let table_bits = 13
let history_bits = 8

(* 2-bit counters, one per byte for simplicity *)
type t = Bytes.t

let create () = Bytes.make (1 lsl table_bits) '\001' (* weakly not-taken *)

(* Align the history with the high end of the index so low PC bits and
   history bits overlap as little as possible. *)
let index ~history ~pc =
  let mask = (1 lsl table_bits) - 1 in
  (pc lsr 2) lxor (history lsl (table_bits - history_bits)) land mask

let initial_history = 0

let predict_with t ~history ~pc = Bytes.get_uint8 t (index ~history ~pc) >= 2

let update_with t ~history ~pc ~taken =
  let i = index ~history ~pc in
  let c = Bytes.get_uint8 t i in
  Bytes.set_uint8 t i (if taken then min 3 (c + 1) else max 0 (c - 1))

let shift ~history ~taken =
  let hmask = (1 lsl history_bits) - 1 in
  ((history lsl 1) lor Bool.to_int taken) land hmask
