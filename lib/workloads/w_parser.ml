(* parser: recursive-descent expression parsing over a well-formed token
   stream (mutual recursion expr -> term -> factor -> expr). Mixes
   procedure fall-throughs (the recursion) with data-dependent hammocks
   (token tests), like the SPEC parser's grammar walk.

   Tokens: 0 = number, 1 = '+', 2 = '*', 3 = '(', 4 = ')', 5 = end. *)

open Pf_mini.Ast

let max_tokens = 4096

let tok = ld1 (Addr "tokens" +: v "cursor")

let advance = Set ("cursor", v "cursor" +: i 1)

let program =
  { funcs =
      [ { name = "main"; params = [];
          body =
            [ Let ("acc", i 0); Set ("cursor", i 0) ]
            @ for_ "rep" ~init:(i 0) ~cond:(v "rep" <: i 2000)
                ~step:(v "rep" +: i 1)
                [ (* wrap around at the end marker; otherwise keep parsing
                     successive expressions from the stream *)
                  If (tok ==: i 5, [ Set ("cursor", i 0) ], []);
                  Let ("r", Call ("parse_expr", []));
                  Set ("acc", v "acc" +: v "r") ]
            @ [ Set ("result", v "acc") ] };
        (* expr := term ('+' term)* *)
        { name = "parse_expr"; params = [];
          body =
            [ Let ("v_", Call ("parse_term", []));
              While
                ( tok ==: i 1,
                  [ advance;
                    Let ("rhs", Call ("parse_term", []));
                    Set ("v_", v "v_" +: v "rhs") ] );
              Return (Some (v "v_")) ] };
        (* term := factor ('*' factor)* *)
        { name = "parse_term"; params = [];
          body =
            [ Let ("v_", Call ("parse_factor", []));
              While
                ( tok ==: i 2,
                  [ advance;
                    Let ("rhs", Call ("parse_factor", []));
                    Set ("v_", v "v_" *: v "rhs");
                    Set ("v_", v "v_" &: i 0xffffff) ] );
              Return (Some (v "v_")) ] };
        (* factor := number | '(' expr ')' ; numbers go through a
           dictionary lookup, like the real parser's word hashing *)
        { name = "parse_factor"; params = [];
          body =
            [ If
                ( tok ==: i 3,
                  [ advance;
                    Let ("inner", Call ("parse_expr", []));
                    advance; (* consume ')' *)
                    Return (Some (v "inner")) ],
                  [] );
              Let ("n", ld1 (Addr "values" +: v "cursor"));
              advance;
              Let ("h", (v "n" *: i 0x9e3779) &: i 1023);
              Let ("entry", ld8 (idx8 (Addr "dict") (v "h")));
              Set ("entry", v "entry" ^: (v "entry" >>: i 7));
              Set ("entry", v "entry" +: (v "n" <<: i 2));
              If
                ( (v "entry" &: i 1) ==: i 0,
                  [ Set ("n", v "n" +: (v "entry" &: i 0xff)) ],
                  [ Set ("n", v "n" ^: (v "entry" &: i 0x3f)) ] );
              Return (Some (v "n")) ] } ];
    globals =
      [ ("result", 8); ("cursor", 8); ("tokens", max_tokens);
        ("values", max_tokens); ("dict", 8 * 1024) ]
  }

(* Generate a well-formed token stream in OCaml. *)
let setup machine address_of =
  let rng = Rng.create ~seed:0x9a45e5 in
  let tokens = address_of "tokens" and values = address_of "values" in
  Workload.fill_words rng machine ~base:(address_of "dict") ~words:1024
    ~mask:0xffffffL;
  let pos = ref 0 in
  let emit t =
    if !pos < max_tokens - 2 then begin
      Pf_isa.Machine.write_u8 machine (tokens + !pos) t;
      Pf_isa.Machine.write_u8 machine (values + !pos) (Rng.int rng 100);
      incr pos
    end
  in
  let rec gen_expr depth =
    gen_term depth;
    while Rng.bool_p rng 0.4 && !pos < max_tokens - 16 do
      emit 1;
      gen_term depth
    done
  and gen_term depth =
    gen_factor depth;
    while Rng.bool_p rng 0.3 && !pos < max_tokens - 16 do
      emit 2;
      gen_factor depth
    done
  and gen_factor depth =
    if depth < 5 && Rng.bool_p rng 0.35 && !pos < max_tokens - 16 then begin
      emit 3;
      gen_expr (depth + 1);
      emit 4
    end
    else emit 0
  in
  (* a long sequence of expressions, then the end marker *)
  while !pos < max_tokens - 32 do
    gen_expr 0
  done;
  emit 5 (* end marker *)

let workload =
  Workload.declare ~name:"parser"
    ~description:"recursive-descent parsing of a generated expression stream"
    ~fast_forward:2000 ~window:60_000 program setup
