(* vortex: object-database flavour — a transaction loop that walks a
   sequence of mid-sized handler routines (insert/lookup/update/delete
   variants), each touching object records and calling shared helpers.
   The combined code footprint exceeds the 8 KB L1 I-cache and the call
   density is extreme, so procedure fall-through spawns dominate: the
   paper reports a 56% loss for vortex when procFT spawns are removed
   (Figure 11). *)

open Pf_mini.Ast

let nhandlers = 44
let objects = 1024 (* 8 KB of object words *)

(* shared helpers the handlers call *)
let helper_hash =
  { name = "obj_hash"; params = [ "x" ];
    body =
      [ Let ("t", v "x" *: i 0x9e37);
        Set ("t", v "t" ^: (v "t" >>: i 7));
        Set ("t", v "t" +: (v "t" <<: i 3));
        Set ("t", v "t" ^: (v "t" >>: i 11));
        Return (Some (v "t" &: i (objects - 1))) ] }

let helper_touch =
  { name = "obj_touch"; params = [ "slot"; "delta" ];
    body =
      [ Let ("a", idx8 (Addr "objs") (v "slot"));
        Let ("val_", ld8 (v "a"));
        st8 (v "a") (v "val_" +: v "delta");
        Return (Some (v "val_")) ] }

(* handler k: hash the key, touch a few object fields, some padding
   arithmetic so each handler occupies several I-cache lines *)
let make_handler k =
  let c = 3 + (k * 11 mod 17) in
  { name = Printf.sprintf "handler%d" k;
    params = [ "key" ];
    body =
      [ Let ("h", Call ("obj_hash", [ v "key" +: i k ]));
        Let ("o1", Call ("obj_touch", [ v "h"; i c ]));
        Let ("t", (v "o1" *: i c) +: (v "key" <<: i (k mod 3)));
        Set ("t", v "t" ^: (v "t" >>: i 5));
        Set ("t", v "t" +: (v "o1" &: i 0xff));
        Set ("t", v "t" ^: (v "t" <<: i 2));
        Set ("t", v "t" -: (v "key" >>: i (k mod 5)));
        Set ("t", v "t" +: (v "t" >>: i 9));
        Set ("t", v "t" ^: (v "t" <<: i (1 + (k mod 4))));
        Set ("t", v "t" +: (v "o1" *: i (2 + (k mod 7))));
        Set ("t", v "t" -: (v "t" >>: i 3));
        Set ("t", v "t" ^: i (k * 0x101));
        Set ("t", v "t" +: (v "key" &: i 0x3f));
        Set ("t", v "t" <<: i 1);
        Set ("t", v "t" ^: (v "t" >>: i 13));
        Set ("t", v "t" +: i (k * 7));
        Let ("h2", Call ("obj_hash", [ v "t" ]));
        Let ("o2", Call ("obj_touch", [ v "h2"; i 1 ]));
        Set ("t", v "t" +: v "o2");
        Set ("t", v "t" &: i 0xffffff);
        Return (Some (v "t")) ] }

let program =
  let calls =
    List.concat
      (List.init nhandlers (fun k ->
           [ Let ("r", Call (Printf.sprintf "handler%d" k, [ v "rep" +: i (3 * k) ]));
             st8 (idx8 (Addr "results") (i k)) (v "r") ]))
  in
  { funcs =
      ({ name = "main"; params = [];
         body =
           for_ "rep" ~init:(i 0) ~cond:(v "rep" <: i 300) ~step:(v "rep" +: i 1)
             calls
           @ [ Set ("result", ld8 (Addr "results")) ] }
      :: helper_hash :: helper_touch
      :: List.init nhandlers make_handler);
    globals = [ ("result", 8); ("objs", 8 * objects); ("results", 8 * nhandlers) ]
  }

let setup machine address_of =
  let rng = Rng.create ~seed:0x70e7e in
  Workload.fill_words rng machine ~base:(address_of "objs") ~words:objects
    ~mask:0xffffL

let workload =
  Workload.declare ~name:"vortex"
    ~description:"transaction loop over 20 object handlers (procFT-dominated)"
    ~fast_forward:2000 ~window:60_000 program setup
