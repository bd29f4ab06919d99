type width = Pf_isa.Instr.width

type rel = Req | Rne | Rlt | Rle | Rgt | Rge

type expr =
  | Const of int64
  | Var of string
  | Addr of string
  | Load of width * bool * expr
  | Binop of Pf_isa.Instr.alu_op * expr * expr
  | Cmp of rel * expr * expr
  | Call of string * expr list

type stmt =
  | Let of string * expr
  | Set of string * expr
  | Store of width * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | Switch of expr * (int * stmt list) list * stmt list
  | Call_stmt of string * expr list
  | Return of expr option
  | Break

type func = { name : string; params : string list; body : stmt list }

type program = { funcs : func list; globals : (string * int) list }

let i n = Const (Int64.of_int n)
let v name = Var name

module I = Pf_isa.Instr

let ( +: ) a b = Binop (I.Add, a, b)
let ( -: ) a b = Binop (I.Sub, a, b)
let ( *: ) a b = Binop (I.Mul, a, b)
let ( /: ) a b = Binop (I.Div, a, b)
let ( %: ) a b = Binop (I.Rem, a, b)
let ( &: ) a b = Binop (I.And, a, b)
let ( |: ) a b = Binop (I.Or, a, b)
let ( ^: ) a b = Binop (I.Xor, a, b)
let ( <<: ) a b = Binop (I.Sll, a, b)
let ( >>: ) a b = Binop (I.Sra, a, b)

let ( ==: ) a b = Cmp (Req, a, b)
let ( <>: ) a b = Cmp (Rne, a, b)
let ( <: ) a b = Cmp (Rlt, a, b)
let ( <=: ) a b = Cmp (Rle, a, b)
let ( >: ) a b = Cmp (Rgt, a, b)
let ( >=: ) a b = Cmp (Rge, a, b)

let ld8 e = Load (I.D, true, e)
let ld4 e = Load (I.W, true, e)
let ld1 e = Load (I.B, true, e)

let st8 addr value = Store (I.D, addr, value)
let st4 addr value = Store (I.W, addr, value)
let st1 addr value = Store (I.B, addr, value)

let idx8 base e = base +: (e <<: i 3)

let for_ var ~init ~cond ~step body =
  [ Let (var, init); While (cond, body @ [ Set (var, step) ]) ]
