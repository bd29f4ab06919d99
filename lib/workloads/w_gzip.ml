(* gzip: LZ77 flavour — byte-level match extension between two windows
   with a data-dependent exit, then a literal/match hammock. The match
   loop is short and its trip count is data-dependent, so loop
   fall-through spawns recover the fetch stream right after it. *)

open Pf_mini.Ast

let buf_bytes = 4096

let program =
  { funcs =
      [ { name = "main"; params = [];
          body =
            [ Let ("acc", i 0) ]
            @ for_ "pos" ~init:(i 0) ~cond:(v "pos" <: i 6000)
                ~step:(v "pos" +: i 1)
                [ Let ("a", v "pos" &: i (buf_bytes - 1));
                  Let ("b", (v "pos" *: i 7) &: i (buf_bytes - 1));
                  Let ("len", i 0);
                  While
                    ( (ld1 (Addr "text" +: v "a" +: v "len")
                       ==: ld1 (Addr "text" +: v "b" +: v "len"))
                      &: (v "len" <: i 16),
                      [ Set ("len", v "len" +: i 1) ] );
                  If
                    ( v "len" >: i 3,
                      [ Set ("acc", v "acc" +: (v "len" *: i 4)) ],
                      [ Set ("acc", v "acc" +: ld1 (Addr "text" +: v "a")) ] ) ]
            @ [ Set ("result", v "acc") ] } ];
    globals = [ ("result", 8); ("text", buf_bytes + 32) ]
  }

let setup machine address_of =
  let rng = Rng.create ~seed:0x9219 in
  let text = address_of "text" in
  (* low-entropy "text": few symbols, so matches of varying length occur *)
  for k = 0 to buf_bytes + 31 do
    Pf_isa.Machine.write_u8 machine (text + k) (Rng.int rng 4)
  done

let workload =
  Workload.declare ~name:"gzip"
    ~description:"LZ77-style match extension with data-dependent loop exits"
    ~fast_forward:2000 ~window:60_000 program setup
