(* The loop-nest / DOACROSS workload family: parameterized Mini loop
   nests with a tunable cross-iteration dependence structure, the
   workloads behind the dependence-distance figure (EXPERIMENTS.md).

   Each inner-loop iteration gathers a value from a read-only input
   array (through one of three stride patterns), reads the outputs of
   the [distance] most recent previous iterations, and stores its own
   output:

     out[i] = f(in[g(i)], out[i-1], ..., out[i-distance])

   [distance] is the *carry span*: 0 means no cross-iteration reads at
   all — a DOALL loop, every iteration independent — while distance D
   makes each iteration consume D earlier iterations' stores (memory
   carries at distances 1..D). A larger span ties more of the
   iteration's work to its predecessors, so iteration-level speculation
   degrades monotonically from the fully-parallel D=0 case toward the
   serial superscalar as D grows — the axis the DOACROSS literature
   identifies as deciding whether iteration speculation wins.

   The input gather varies independently of the carry structure:
   [Unit] walks the input array in order, [Strided] jumps by a
   cache-unfriendly constant, [Indirect] chases a permutation index
   array (a gather). [depth] nests the carrying inner loop under one
   or two outer loops that re-seed the gather offset per row; the
   carried dependence always lives in the innermost loop, restarting
   at every row, as in the classic DOACROSS loop shape. *)

open Pf_mini.Ast

type stride = Unit | Strided | Indirect

let stride_name = function
  | Unit -> "unit"
  | Strided -> "strided"
  | Indirect -> "ind"

let stride_of_name = function
  | "unit" -> Some Unit
  | "strided" -> Some Strided
  | "ind" -> Some Indirect
  | _ -> None

let distances = [ 0; 1; 2; 4; 8 ]

(* 4096 8-byte slots per array: 32 KB, larger than the L1D. *)
let slots = 4096
let mask = slots - 1

(* Iterations 0..warm-1 are prefilled by setup, so the first simulated
   iteration of every row can read a full [distance]-deep carry window
   without bounds tests in the hot loop. Must be >= the largest carry
   span. *)
let warm = 8

let name ~distance ~stride ~depth =
  Printf.sprintf "loopnest.d%d.%s.n%d" distance (stride_name stride) depth

let description ~distance ~stride ~depth =
  Printf.sprintf
    "loop nest, depth %d, %s input stride, carry span %d (reads the %s)"
    depth (stride_name stride) distance
    (match distance with
    | 0 -> "nothing: a DOALL loop"
    | 1 -> "previous iteration's store"
    | d -> Printf.sprintf "%d previous iterations' stores" d)

(* The carrying inner-loop body. [ro] is the per-row gather offset
   (Let-bound by the enclosing loop level, 0 at depth 1). The two
   data-dependent hammocks on the gathered value are what bound the
   superscalar baseline (mispredict repair serializes its one
   frontend, as in the SPEC-shaped kernels); at carry span 0 every
   iteration is independent, so iteration tasks overlap the repairs. *)
let inner_body ~distance ~stride =
  let iv = v "i" +: v "ro" in
  let gathered =
    match stride with
    | Unit -> ld8 (idx8 (Addr "in_") (iv &: i mask))
    | Strided -> ld8 (idx8 (Addr "in_") ((iv *: i 17) &: i mask))
    | Indirect ->
        ld8 (idx8 (Addr "in_") (ld8 (idx8 (Addr "idx_") (iv &: i mask)) &: i mask))
  in
  [ Let ("acc", gathered);
    If
      ( (v "acc" &: i 3) ==: i 0,
        [ Set ("acc", v "acc" +: (v "acc" >>: i 3)) ],
        [ Set ("acc", v "acc" ^: i 0x55) ] );
    Let ("t", ld8 (idx8 (Addr "in_") ((iv +: i 11) &: i mask)));
    If
      ( (v "t" &: i 7) <: i 3,
        [ Set ("acc", v "acc" +: (v "t" >>: i 2)) ],
        [ Set ("acc", v "acc" ^: v "t") ] );
    If
      ( ((v "acc" ^: v "t") &: i 15) <: i 6,
        [ Set ("acc", v "acc" +: ld8 (idx8 (Addr "in_") ((iv +: i 23) &: i mask))) ],
        [] ) ]
  @ List.init distance (fun k ->
        (* each carried step multiplies before folding the older
           iteration's store in, so the per-iteration serial chain —
           and with it the loss of iteration-level parallelism — grows
           with the carry span *)
        Set
          ( "acc",
            (v "acc" *: i 3) +: ld8 (idx8 (Addr "out_") (v "i" -: i (k + 1)))
          ))
  @ [ st8 (idx8 (Addr "out_") (v "i")) (v "acc") ]

(* Roughly constant inner-iteration count per depth (the capture window
   sees the same order of work whichever nest shape is measured). *)
let inner_loop ~distance ~stride ~trip =
  for_ "i" ~init:(i warm) ~cond:(v "i" <: i trip) ~step:(v "i" +: i 1)
    (inner_body ~distance ~stride)

let body ~distance ~stride ~depth =
  match depth with
  | 1 -> Let ("ro", i 0) :: inner_loop ~distance ~stride ~trip:4000
  | 2 ->
      for_ "r" ~init:(i 0) ~cond:(v "r" <: i 12) ~step:(v "r" +: i 1)
        (Let ("ro", v "r" *: i 29) :: inner_loop ~distance ~stride ~trip:1200)
  | 3 ->
      for_ "q" ~init:(i 0) ~cond:(v "q" <: i 4) ~step:(v "q" +: i 1)
        (for_ "r" ~init:(i 0) ~cond:(v "r" <: i 6) ~step:(v "r" +: i 1)
           (Let ("ro", (v "q" *: i 53) +: (v "r" *: i 29))
           :: inner_loop ~distance ~stride ~trip:600))
  | d -> invalid_arg (Printf.sprintf "Loopnest: depth %d (want 1..3)" d)

let program ~distance ~stride ~depth =
  if distance < 0 || distance > warm then
    invalid_arg
      (Printf.sprintf "Loopnest: carry span %d (want 0..%d)" distance warm);
  { funcs =
      [ { name = "main";
          params = [];
          body =
            body ~distance ~stride ~depth
            @ [ Set ("result", ld8 (idx8 (Addr "out_") (i (warm + 1)))) ] } ];
    globals =
      [ ("result", 8); ("in_", slots * 8); ("out_", slots * 8);
        ("idx_", slots * 8) ] }

let setup ~distance ~stride ~depth machine address_of =
  let rng = Rng.create ~seed:(0x10ae5 + distance + (depth * 31)) in
  Workload.fill_words rng machine ~base:(address_of "in_") ~words:slots
    ~mask:0xFFFFFFL;
  (* the prefilled carry window every row's first iterations read *)
  Workload.fill_words rng machine ~base:(address_of "out_") ~words:warm
    ~mask:0xFFFFFFL;
  if stride = Indirect then
    Workload.fill_permutation rng machine ~base:(address_of "idx_")
      ~slots ~stride:8

let workload ~distance ~stride ~depth =
  Workload.declare
    ~name:(name ~distance ~stride ~depth)
    ~description:(description ~distance ~stride ~depth)
    ~fast_forward:500 ~window:30_000
    (program ~distance ~stride ~depth)
    (setup ~distance ~stride ~depth)

(* The curated members registered in [Suite]: the dependence-distance
   sweep (unit stride, depth 1, every distance) plus one variant per
   remaining axis. The constructor above declares any other combination
   for one-off experiments. *)
let sweep_names =
  List.map (fun d -> name ~distance:d ~stride:Unit ~depth:1) distances

let registered =
  List.map (fun d -> workload ~distance:d ~stride:Unit ~depth:1) distances
  @ [ workload ~distance:2 ~stride:Strided ~depth:1;
      workload ~distance:2 ~stride:Indirect ~depth:1;
      workload ~distance:2 ~stride:Unit ~depth:2;
      workload ~distance:2 ~stride:Unit ~depth:3 ]
