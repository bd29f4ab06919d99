(* twolf: the new_dbox_a kernel of Figure 6 — a nested loop whose inner
   loop walks a linked net list and contains one if-then-else (taken
   ~30%) and two ABS if-thens (~50%), exactly the structure Section 2.3
   analyses. Inner lists average 3 nodes. Loop and loop-fall-through
   spawns expose inner- and outer-loop parallelism; hammock spawns jump
   the hard branches inside the inner loop. *)

open Pf_mini.Ast

let nterms = 24
let max_nets = 5
let term_stride = 16 (* [0]=nextterm [8]=dimptr *)
let dim_stride = 8 (* [0]=netptr *)
let net_stride = 32 (* [0]=nterm [8]=xpos [16]=flag [24]=newx *)

let abs_into var =
  [ If (v var <: i 0, [ Set (var, i 0 -: v var) ], []) ]

let program =
  { funcs =
      [ { name = "main"; params = [];
          body =
            for_ "rep" ~init:(i 0) ~cond:(v "rep" <: i 200) ~step:(v "rep" +: i 1)
              ((* reset pass: re-derive every net's flag for this repetition
                  from its random shadow word — a fresh ~25%-biased pattern
                  per pass, like the placement phases that set the flags
                  between new_dbox_a calls in the real benchmark *)
               for_ "k" ~init:(i 0) ~cond:(v "k" <: i (nterms * max_nets))
                 ~step:(v "k" +: i 1)
                 [ st8
                     ((Addr "nets" +: (v "k" *: i net_stride)) +: i 16)
                     (((ld8 (idx8 (Addr "flag_init") (v "k"))
                        >>: (v "rep" &: i 31))
                       &: i 3)
                      ==: i 0) ]
              @ [ Call_stmt ("new_dbox_a", [ ld8 (Addr "head") ]) ])
            @ [ Set ("result", v "cost") ] };
        { name = "new_dbox_a"; params = [ "termptr" ];
          body =
            [ While
                ( v "termptr" <>: i 0,
                  [ Let ("dimptr", ld8 (v "termptr" +: i 8));
                    Let ("netptr", ld8 (v "dimptr"));
                    While
                      ( v "netptr" <>: i 0,
                        [ Let ("oldx", ld8 (v "netptr" +: i 8));
                          Let ("newx", i 0);
                          If
                            ( ld8 (v "netptr" +: i 16) ==: i 1,
                              [ Set ("newx", ld8 (v "netptr" +: i 24));
                                st8 (v "netptr" +: i 16) (i 0) ],
                              [ Set ("newx", v "oldx") ] );
                          Let ("d1", v "newx" -: v "new_mean") ]
                        @ abs_into "d1"
                        @ [ Let ("d2", v "oldx" -: v "old_mean") ]
                        @ abs_into "d2"
                        @ [ Set ("cost", (v "cost" +: v "d1") -: v "d2");
                            Set ("netptr", ld8 (v "netptr")) ] );
                    Set ("termptr", ld8 (v "termptr")) ] ) ] } ];
    globals =
      [ ("result", 8); ("cost", 8); ("head", 8); ("new_mean", 8);
        ("old_mean", 8);
        ("terms", nterms * term_stride);
        ("dims", nterms * dim_stride);
        ("nets", nterms * max_nets * net_stride);
        ("flag_init", nterms * max_nets * 8) ]
  }

let setup machine address_of =
  let rng = Rng.create ~seed:0x7001f in
  let terms = address_of "terms"
  and dims = address_of "dims"
  and nets = address_of "nets"
  and flag_init = address_of "flag_init" in
  let w = Pf_isa.Machine.write_i64 machine in
  (* linked list of terms; each term's dim points at a net sub-list *)
  for t = 0 to nterms - 1 do
    let term = terms + (t * term_stride) in
    let next = if t = nterms - 1 then 0 else term + term_stride in
    w term (Int64.of_int next);
    w (term + 8) (Int64.of_int (dims + (t * dim_stride)));
    (* net list for this term: 1..max_nets nodes, averaging ~3 *)
    let len = 1 + Rng.int rng max_nets in
    let net_at k = nets + (((t * max_nets) + k) * net_stride) in
    w (dims + (t * dim_stride)) (Int64.of_int (net_at 0));
    for k = 0 to len - 1 do
      let node = net_at k in
      let next = if k = len - 1 then 0 else net_at (k + 1) in
      w node (Int64.of_int next);
      w (node + 8) (Int64.of_int (Rng.int rng 1000)); (* xpos *)
      w (node + 16) 0L; (* flag: rewritten by each reset pass *)
      w (node + 24) (Int64.of_int (Rng.int rng 1000)); (* newx *)
      (* random shadow word: each repetition derives a fresh flag bit *)
      w (flag_init + (((t * max_nets) + k) * 8)) (Rng.next rng)
    done
  done;
  w (address_of "head") (Int64.of_int terms);
  w (address_of "new_mean") 500L;
  w (address_of "old_mean") 480L

let workload =
  Workload.declare ~name:"twolf"
    ~description:"new_dbox_a nested loops over linked net lists (Figure 6)"
    ~fast_forward:2000 ~window:60_000 program
    (fun m addr -> setup m addr)
