(* bzip2: run-length/bit-stream compression flavour. A data-dependent
   short inner loop (counting low one-bits) whose trip count varies per
   element, a moderately biased hammock, and a histogram update. Loop
   fall-through spawns jump past the variable-length inner loop. *)

open Pf_mini.Ast

let program =
  { funcs =
      [ { name = "main"; params = [];
          body =
            [ Let ("acc", i 0) ]
            @ for_ "k" ~init:(i 0) ~cond:(v "k" <: i 7000) ~step:(v "k" +: i 1)
                [ Let ("x", ld8 (idx8 (Addr "data") (v "k" &: i 1023)));
                  Let ("run", i 0);
                  While
                    ( ((v "x" &: i 1) ==: i 1) &: (v "run" <: i 8),
                      [ Set ("x", v "x" >>: i 1);
                        Set ("run", v "run" +: i 1) ] );
                  If
                    ( v "run" >: i 2,
                      [ Set ("acc", v "acc" +: v "run") ],
                      [ Set ("acc", v "acc" ^: v "x") ] );
                  (* histogram bucket update *)
                  Let ("slot", idx8 (Addr "hist") (v "x" &: i 255));
                  st8 (v "slot") (ld8 (v "slot") +: i 1) ]
            @ [ Set ("result", v "acc") ] } ];
    globals = [ ("result", 8); ("data", 8 * 1024); ("hist", 8 * 256) ]
  }

let setup machine address_of =
  let rng = Rng.create ~seed:0xb21b2 in
  Workload.fill_words rng machine ~base:(address_of "data") ~words:1024
    ~mask:Int64.max_int

let workload =
  Workload.declare ~name:"bzip2"
    ~description:"run-length counting with data-dependent inner-loop trip counts"
    ~fast_forward:2000 ~window:60_000 program setup
