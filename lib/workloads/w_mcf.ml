(* mcf: network-simplex-like pointer chasing. A random cyclic chain of
   arc records (64 KB: larger than the L1D, inside the L2) is walked
   serially; two hard-to-predict branches test arc fields on every
   step. The chase bounds ILP, so the superscalar spends its time on
   load latency and branch repair; hammock spawns let PolyFlow fetch
   past the hard branches while the chase load is outstanding. *)

open Pf_mini.Ast

let nodes = 2048
let stride = 32 (* [0]=next [8]=value [16]=weight [24]=pad *)

let program =
  { funcs =
      [ { name = "main"; params = [];
          body =
            [ Let ("node", ld8 (Addr "head")); Let ("acc", i 0) ]
            @ for_ "step" ~init:(i 0) ~cond:(v "step" <: i 8000)
                ~step:(v "step" +: i 1)
                [ Let ("val_", ld8 (v "node" +: i 8));
                  If
                    ( (v "val_" &: i 3) ==: i 0,
                      [ Set ("acc", v "acc" +: (v "val_" >>: i 3)) ],
                      [ Set ("acc", v "acc" ^: v "val_") ] );
                  If
                    ( (v "val_" &: i 7) <: i 3,
                      [ Set ("acc", v "acc" +: ld8 (v "node" +: i 16)) ],
                      [] );
                  Set ("node", ld8 (v "node")) ]
            @ [ Set ("result", v "acc") ] } ];
    globals = [ ("result", 8); ("head", 8); ("arcs", nodes * stride) ]
  }

let setup machine address_of =
  let rng = Rng.create ~seed:0x3c0f in
  let arcs = address_of "arcs" in
  Workload.fill_permutation rng machine ~base:arcs ~slots:nodes ~stride;
  for k = 0 to nodes - 1 do
    let node = arcs + (k * stride) in
    Pf_isa.Machine.write_i64 machine (node + 8) (Int64.of_int (Rng.int rng 0x10000));
    Pf_isa.Machine.write_i64 machine (node + 16) (Int64.of_int (Rng.int rng 256))
  done;
  Pf_isa.Machine.write_i64 machine (address_of "head") (Int64.of_int arcs)

let workload =
  Workload.declare ~name:"mcf"
    ~description:"serial pointer chase with hard branches over a 64 KB arc pool"
    ~fast_forward:2000 ~window:60_000 program setup
