(* crafty: chess-evaluation-like bit twiddling. Nested data-dependent
   if-then-else trees over random 50/50 bitboard bits — the branches
   are essentially unpredictable, and there is little loop-level
   parallelism, so loop-based heuristics achieve nothing while hammock
   spawns (and the "other" spawn from a branch whose arm contains a
   loop) jump over the misprediction storms. *)

open Pf_mini.Ast

let program =
  { funcs =
      [ { name = "main"; params = [];
          body =
            [ Let ("acc", i 0); Let ("hash", i 1) ]
            @ for_ "k" ~init:(i 0) ~cond:(v "k" <: i 6000) ~step:(v "k" +: i 1)
                [ (* the position "hash" threads serially through every
                     iteration and feeds the branch conditions, as the
                     real search's incremental state does — iteration-
                     level (loop) spawns gain little because the spawned
                     iteration's branches resolve only after the previous
                     iteration's evaluation completes *)
                  Let ("b", ld8 (idx8 (Addr "board") ((v "k" +: v "hash") &: i 511)));
                  Set ("hash", (v "hash" *: i 13) ^: (v "b" &: i 0xff));
                  Set ("hash", v "hash" &: i 0xffff);
                  (* two-level nested hammock on random bits *)
                  If
                    ( ((v "b" ^: v "hash") &: i 1) ==: i 0,
                      [ If
                          ( (v "b" &: i 2) ==: i 0,
                            [ Set ("acc", v "acc" +: (v "b" >>: i 8)) ],
                            [ Set ("acc", v "acc" -: (v "b" &: i 0xff)) ] ) ],
                      [ If
                          ( (v "b" &: i 4) ==: i 0,
                            [ Set ("acc", v "acc" ^: (v "b" >>: i 4)) ],
                            [ Set ("acc", v "acc" +: i 3) ] ) ] );
                  (* a second independent hammock *)
                  If
                    ( (v "b" &: i 8) ==: i 0,
                      [ Set ("acc", v "acc" +: (v "b" >>: i 16)) ],
                      [ Set ("acc", v "acc" -: i 1) ] );
                  (* branch with a small loop in one arm: classified as
                     "other" (not a simple hammock) *)
                  If
                    ( (v "b" &: i 16) ==: i 0,
                      [ Let ("mob", v "b" &: i 7); Let ("j", i 0);
                        While
                          ( v "j" <: v "mob",
                            [ Set ("acc", v "acc" +: v "j");
                              Set ("j", v "j" +: i 1) ] ) ],
                      [ Set ("acc", v "acc" ^: i 0x55) ] ) ]
            @ [ Set ("result", v "acc") ] } ];
    globals = [ ("result", 8); ("board", 8 * 512) ]
  }

let setup machine address_of =
  let rng = Rng.create ~seed:0xc4af7 in
  Workload.fill_words rng machine ~base:(address_of "board") ~words:512
    ~mask:0xffffffffL

let workload =
  Workload.declare ~name:"crafty"
    ~description:"nested unpredictable bitboard hammocks, no loop parallelism"
    ~fast_forward:2000 ~window:60_000 program setup
