(* perlbmk: bytecode-interpreter flavour — the classic dispatch loop.
   Every iteration loads an opcode and dispatches through a jump-table
   indirect jump whose target is effectively random, so the indirect
   predictor misses constantly. The ipostdom of the indirect jump (the
   switch join) is an "other" spawn point; the paper singles perlbmk
   out as the benchmark where "other" spawns beat every heuristic. *)

open Pf_mini.Ast

let code_len = 2048
let stack_mask = 63

let push e =
  [ st8 (idx8 (Addr "stack") (v "sp" &: i stack_mask)) e;
    Set ("sp", v "sp" +: i 1) ]

let pop_into x =
  [ Set ("sp", v "sp" -: i 1);
    Let (x, ld8 (idx8 (Addr "stack") (v "sp" &: i stack_mask))) ]

let program =
  { funcs =
      [ { name = "main"; params = [];
          body =
            [ Let ("vpc", i 0); Let ("sp", i 8); Let ("acc", i 0) ]
            @ for_ "step" ~init:(i 0) ~cond:(v "step" <: i 6000)
                ~step:(v "step" +: i 1)
                [ Let ("op", ld1 (Addr "code" +: v "vpc"));
                  Set ("vpc", (v "vpc" +: i 1) &: i (code_len - 1));
                  Switch
                    ( v "op",
                      [ (0, push (v "vpc" +: i 7));
                        (1,
                         pop_into "a_"
                         @ pop_into "b_"
                         @ push (v "a_" +: v "b_"));
                        (2,
                         pop_into "a_"
                         @ pop_into "b_"
                         @ push (v "a_" -: v "b_"));
                        (3,
                         pop_into "a_"
                         @ push (v "a_") @ push (v "a_"));
                        (4, [ Set ("sp", v "sp" -: i 1) ]);
                        (5,
                         pop_into "a_"
                         @ pop_into "b_"
                         @ push (v "a_" ^: v "b_"));
                        (6, [ Set ("acc", v "acc" +: ld8 (Addr "gvar")) ]);
                        (7, [ st8 (Addr "gvar") (v "acc") ]) ],
                      [ Set ("acc", v "acc" +: i 1) ] );
                  (* keep sp in range regardless of opcode mix *)
                  Set ("sp", (v "sp" &: i stack_mask) |: i 8) ]
            @ [ Set ("result", v "acc") ] } ];
    globals =
      [ ("result", 8); ("gvar", 8); ("code", code_len);
        ("stack", 8 * (stack_mask + 1)) ]
  }

let setup machine address_of =
  let rng = Rng.create ~seed:0x9e47b in
  let code = address_of "code" in
  for k = 0 to code_len - 1 do
    Pf_isa.Machine.write_u8 machine (code + k) (Rng.int rng 8)
  done

let workload =
  Workload.declare ~name:"perlbmk"
    ~description:"bytecode dispatch loop through an unpredictable jump table"
    ~fast_forward:2000 ~window:60_000 program setup
