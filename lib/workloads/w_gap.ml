(* gap: computer-algebra flavour — long straight-line sequences of calls
   to many mid-sized functions whose combined footprint (~10 KB) exceeds
   the 8 KB L1 I-cache, so every pass streams through instruction
   misses. Procedure fall-through spawns start fetching the return
   point (and the next callee) while the current callee is still
   missing in the I-cache. *)

open Pf_mini.Ast

let nfuncs = 24

(* Each generated function performs a distinct arithmetic mix on its
   argument, long enough (~60 instructions) to occupy I-cache lines. *)
let make_func k =
  let name = Printf.sprintf "op%d" k in
  let c1 = 3 + (k * 7 mod 11) and c2 = 1 + (k * 5 mod 13) in
  { name;
    params = [ "x" ];
    body =
      [ Let ("t", (v "x" *: i c1) +: i c2);
        Set ("t", v "t" ^: (v "t" >>: i 3));
        Set ("t", v "t" +: (v "x" <<: i (1 + (k mod 3))));
        Set ("t", v "t" -: (v "x" &: i 0xff));
        Set ("t", (v "t" *: i 9) +: (v "x" >>: i (k mod 5)));
        Set ("t", v "t" ^: (v "t" <<: i 2));
        Set ("t", v "t" +: (v "t" >>: i 7));
        Set ("t", v "t" &: i 0xffffff);
        Set ("t", v "t" +: (v "x" *: i c2));
        Set ("t", v "t" ^: (v "t" >>: i 5));
        Set ("t", v "t" -: (v "t" &: i 0xf0));
        Set ("t", v "t" +: (v "t" <<: i 1));
        Return (Some (v "t" &: i 0xfffffff)) ] }

let program =
  let calls =
    List.concat
      (List.init nfuncs (fun k ->
           [ Let ("r", Call (Printf.sprintf "op%d" k, [ v "acc" +: i k ]));
             Set ("acc", v "acc" +: v "r") ]))
  in
  { funcs =
      ({ name = "main"; params = [];
         body =
           [ Let ("acc", i 1) ]
           @ for_ "rep" ~init:(i 0) ~cond:(v "rep" <: i 200)
               ~step:(v "rep" +: i 1) calls
           @ [ Set ("result", v "acc") ] }
      :: List.init nfuncs make_func);
    globals = [ ("result", 8) ]
  }

let workload =
  Workload.declare ~name:"gap"
    ~description:"wide call sequences over ~10 KB of code (I-cache streaming)"
    ~fast_forward:2000 ~window:60_000 program (fun _ _ -> ())
