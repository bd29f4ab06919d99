(* vpr.place: simulated-annealing placement flavour — per move, compute
   a cost delta with ABS hammocks, then an accept/reject branch that is
   random early in the schedule. Accepted moves swap two cells in
   memory. Hammocks and loop fall-throughs both matter. *)

open Pf_mini.Ast

let cells = 1024

let abs_into var = [ If (v var <: i 0, [ Set (var, i 0 -: v var) ], []) ]

let program =
  { funcs =
      [ { name = "main"; params = [];
          body =
            [ Let ("acc", i 0); Let ("prev", i 0); st8 (Addr "prevg") (i 0) ]
            @ for_ "k" ~init:(i 0) ~cond:(v "k" <: i 6000) ~step:(v "k" +: i 1)
                ([ Let ("r", ld8 (idx8 (Addr "rand") (v "k" &: i 2047)));
                   Let ("ia", v "r" &: i (cells - 1));
                   Let ("ib", (v "r" >>: i 16) &: i (cells - 1));
                   Let ("a", ld8 (idx8 (Addr "pos") (v "ia")));
                   Let ("b", ld8 (idx8 (Addr "pos") (v "ib")));
                   Let ("d", v "a" -: v "b") ]
                @ abs_into "d"
                @ [ (* the cost state lives in memory, like the global
                       cost tables the real annealer updates per move *)
                    Let ("delta", v "d" -: ld8 (Addr "prevg"));
                    st8 (Addr "prevg") (v "d");
                    If
                      ( v "delta" <: i 0,
                        [ (* downhill: accept and swap *)
                          st8 (idx8 (Addr "pos") (v "ia")) (v "b");
                          st8 (idx8 (Addr "pos") (v "ib")) (v "a");
                          Set ("acc", v "acc" +: i 1) ],
                        [ (* uphill: accept with random probability *)
                          If
                            ( ((v "r" >>: i 32) &: i 7) <: i 3,
                              [ st8 (idx8 (Addr "pos") (v "ia")) (v "b");
                                st8 (idx8 (Addr "pos") (v "ib")) (v "a") ],
                              [ Set ("acc", v "acc" -: i 1) ] ) ] ) ])
            @ [ Set ("result", v "acc") ] } ];
    globals =
      [ ("result", 8); ("prevg", 8); ("pos", 8 * cells); ("rand", 8 * 2048) ]
  }

let setup machine address_of =
  let rng = Rng.create ~seed:0x9b1ace in
  Workload.fill_words rng machine ~base:(address_of "pos") ~words:cells
    ~mask:0xffffL;
  Workload.fill_words rng machine ~base:(address_of "rand") ~words:2048
    ~mask:Int64.max_int

let workload =
  Workload.declare ~name:"vpr.place"
    ~description:"annealing moves: ABS hammocks and random accept branches"
    ~fast_forward:2000 ~window:60_000 program setup
