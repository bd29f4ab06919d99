(* gcc: compiler flavour — an irregular mix of everything: a small
   switch per "IR node" kind, nested condition tests, short loops over
   operand lists, and helper calls, spread over several functions. No
   single heuristic covers it; the paper shows gcc needs the full
   postdominator set. *)

open Pf_mini.Ast

let nnodes = 1024
let stride = 32 (* [0]=kind [8]=val [16]=nops [24]=link *)

let node_at e = Addr "nodes" +: (e *: i stride)

let program =
  { funcs =
      [ { name = "main"; params = [];
          body =
            [ Let ("acc", i 0) ]
            @ for_ "rep" ~init:(i 0) ~cond:(v "rep" <: i 30) ~step:(v "rep" +: i 1)
                (for_ "n" ~init:(i 0) ~cond:(v "n" <: i nnodes)
                   ~step:(v "n" +: i 1)
                   [ Let ("r", Call ("fold_node", [ v "n" ]));
                     Set ("acc", v "acc" +: v "r") ])
            @ [ Set ("result", v "acc") ] };
        { name = "fold_node"; params = [ "n" ];
          body =
            [ Let ("kind", ld8 (node_at (v "n")));
              Let ("val_", ld8 (node_at (v "n") +: i 8));
              Let ("out", i 0);
              Switch
                ( v "kind",
                  [ (0, (* constant: maybe simplify *)
                     [ If
                         ( (v "val_" &: i 1) ==: i 0,
                           [ Set ("out", v "val_" >>: i 1) ],
                           [ Set ("out", v "val_" +: i 1) ] ) ]);
                    (1, (* unary: helper call *)
                     [ Let ("u", Call ("simplify", [ v "val_" ]));
                       Set ("out", v "u") ]);
                    (2, (* n-ary: loop over operands *)
                     [ Let ("nops", ld8 (node_at (v "n") +: i 16));
                       Let ("j", i 0);
                       While
                         ( v "j" <: v "nops",
                           [ Set ("out", v "out" +: ld8 (idx8 (Addr "ops") ((v "val_" +: v "j") &: i 511)));
                             Set ("j", v "j" +: i 1) ] ) ]);
                    (3, (* chain: follow one link *)
                     [ Let ("l", ld8 (node_at (v "n") +: i 24));
                       Set ("out", ld8 (node_at (v "l" &: i (nnodes - 1)) +: i 8)) ]) ],
                  [ Set ("out", v "val_" ^: i 0x1234) ] );
              If
                ( v "out" <: i 0,
                  [ Set ("out", i 0 -: v "out") ],
                  [] );
              Return (Some (v "out")) ] };
        { name = "simplify"; params = [ "x" ];
          body =
            [ Let ("t", v "x");
              If
                ( (v "t" &: i 3) ==: i 0,
                  [ Set ("t", v "t" >>: i 2) ],
                  [ Set ("t", (v "t" *: i 3) +: i 1) ] );
              Return (Some (v "t" &: i 0xffffff)) ] } ];
    globals = [ ("result", 8); ("nodes", nnodes * stride); ("ops", 8 * 512) ]
  }

let setup machine address_of =
  let rng = Rng.create ~seed:0x6cc in
  let nodes = address_of "nodes" in
  let w = Pf_isa.Machine.write_i64 machine in
  for k = 0 to nnodes - 1 do
    let node = nodes + (k * stride) in
    w node (Int64.of_int (Rng.int rng 5)); (* kind, incl. a default case *)
    w (node + 8) (Int64.of_int (Rng.int rng 0x10000));
    w (node + 16) (Int64.of_int (1 + Rng.int rng 4));
    w (node + 24) (Int64.of_int (Rng.int rng nnodes))
  done;
  Workload.fill_words rng machine ~base:(address_of "ops") ~words:512
    ~mask:0xffffL

let workload =
  Workload.declare ~name:"gcc"
    ~description:"irregular IR folding: switches, hammocks, operand loops, calls"
    ~fast_forward:2000 ~window:60_000 program setup
