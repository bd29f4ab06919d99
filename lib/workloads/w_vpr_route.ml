(* vpr.route: maze-routing flavour — a wavefront expansion that visits
   cells in a randomised order (cache-hostile over a 32 KB grid) and
   scans each cell's four neighbours in a very short inner loop with a
   bounds hammock and a data-dependent relax test. The inner loop is
   only four iterations, so loop fall-through spawns (fetching past the
   inner loop into the next cell) are the big lever; the paper reports
   vpr.route losing 29% when loopFT spawns are removed (Figure 11). *)

open Pf_mini.Ast

let side = 64 (* 64x64 grid *)
let ncells = side * side

let program =
  { funcs =
      [ { name = "main"; params = [];
          body =
            [ Let ("acc", i 0) ]
            @ for_ "w" ~init:(i 0) ~cond:(v "w" <: i 40) ~step:(v "w" +: i 1)
                (for_ "k" ~init:(i 0) ~cond:(v "k" <: i 1500)
                   ~step:(v "k" +: i 1)
                   [ (* visit cells in a randomised order *)
                     Let ("c", ld8 (idx8 (Addr "order") ((v "k" +: (v "w" *: i 997)) &: i (ncells - 1))));
                     Let ("base_cost", ld8 (idx8 (Addr "grid") (v "c")));
                     Let ("slack", ld8 (idx8 (Addr "rand") ((v "c" +: v "w") &: i 2047)));
                     Let ("d", i 0);
                     While
                       ( v "d" <: i 4,
                         [ Let ("n", v "c" +: ld8 (idx8 (Addr "deltas") (v "d")));
                           If
                             ( (v "n" >=: i 0) &: (v "n" <: i ncells),
                               [ Let ("nc", ld8 (idx8 (Addr "grid") (v "n")));
                                 (* relax against a noisy threshold so the
                                    branch stays data-dependent instead of
                                    settling once the grid converges *)
                                 If
                                   ( v "nc" >: (v "base_cost" +: (v "slack" &: i 63)),
                                     [ st8 (idx8 (Addr "grid") (v "n"))
                                         (v "nc" -: (v "slack" &: i 7));
                                       Set ("acc", v "acc" +: i 1) ],
                                     [] ) ],
                               [] );
                           Set ("d", v "d" +: i 1) ] ) ])
            @ [ Set ("result", v "acc") ] } ];
    globals =
      [ ("result", 8); ("grid", 8 * ncells); ("deltas", 8 * 4);
        ("order", 8 * ncells); ("rand", 8 * 2048) ]
  }

let setup machine address_of =
  let rng = Rng.create ~seed:0x40e7e in
  let w = Pf_isa.Machine.write_i64 machine in
  let grid = address_of "grid" in
  for k = 0 to ncells - 1 do
    w (grid + (8 * k)) (Int64.of_int (2000 + Rng.int rng 10000))
  done;
  (* random visiting order: a shuffled enumeration of all cells *)
  let perm = Array.init ncells (fun k -> k) in
  for k = ncells - 1 downto 1 do
    let j = Rng.int rng (k + 1) in
    let tmp = perm.(k) in
    perm.(k) <- perm.(j);
    perm.(j) <- tmp
  done;
  let order = address_of "order" in
  Array.iteri (fun k c -> w (order + (8 * k)) (Int64.of_int c)) perm;
  Workload.fill_words rng machine ~base:(address_of "rand") ~words:2048
    ~mask:0xffffL;
  let deltas = address_of "deltas" in
  List.iteri
    (fun k d -> w (deltas + (8 * k)) (Int64.of_int d))
    [ -side; -1; 1; side ]

let workload =
  Workload.declare ~name:"vpr.route"
    ~description:"randomised grid wavefront with 4-iteration neighbour loops"
    ~fast_forward:2000 ~window:60_000 program setup
