type t = int

let count = 32
let zero = 0
let at = 1
let v0 = 2
let v1 = 3
let a0 = 4
let a1 = 5
let a2 = 6
let a3 = 7
let t0 = 8
let t1 = 9
let t2 = 10
let t3 = 11
let t4 = 12
let t5 = 13
let t6 = 14
let t7 = 15
let s0 = 16
let s1 = 17
let s2 = 18
let s3 = 19
let s4 = 20
let s5 = 21
let s6 = 22
let s7 = 23
let t8 = 24
let t9 = 25
let sp = 29
let fp = 30
let ra = 31

let names =
  [| "$zero"; "$at"; "$v0"; "$v1"; "$a0"; "$a1"; "$a2"; "$a3"; "$t0"; "$t1";
     "$t2"; "$t3"; "$t4"; "$t5"; "$t6"; "$t7"; "$s0"; "$s1"; "$s2"; "$s3";
     "$s4"; "$s5"; "$s6"; "$s7"; "$t8"; "$t9"; "$k0"; "$k1"; "$gp"; "$sp";
     "$fp"; "$ra" |]

let name r =
  if r >= 0 && r < count then names.(r)
  else invalid_arg (Printf.sprintf "Reg.name: %d" r)

let of_name s =
  let rec find k = if k >= count then None else if names.(k) = s then Some k else find (k + 1) in
  find 0

let pp ppf r = Format.pp_print_string ppf (name r)
