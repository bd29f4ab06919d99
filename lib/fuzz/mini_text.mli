(** A textual (s-expression) syntax for Mini programs, giving the
    fuzzer a print/parse round trip: the shrinker's minimized failing
    program is written into the repro file verbatim and
    [polyflow_fuzz replay] reads it back, so a repro stays replayable
    even though no seed regenerates a {e shrunk} program.

    The syntax mirrors {!Pf_mini.Ast} one constructor per form:

    {v
    (program
     (globals (result 8) (arr 128))
     (func main ()
      (let a (i 3))
      (set g1 (add a (i 1)))
      (if (lt a (i 0)) ((set g1 (i 0))) ())
      (while (lt a (i 5)) (set a (add a (i 1))))
      (st d (addr arr) g1)
      (call! helper (i 1))
      (return)))
    v}

    Expressions: [(i N)] constant, a bare symbol for a variable,
    [(addr g)], [(ld <w> <s|u> e)], [(<aluop> e1 e2)] for
    [add sub and or xor nor sll srl sra slt sltu mul div rem],
    [(<rel> e1 e2)] for [eq ne lt le gt ge], [(call f e ...)].
    Widths: [b h w d]. Statements: [(let x e)], [(set x e)],
    [(st <w> ea ev)], [(if c (then...) (else...))], [(while c s ...)],
    [(dowhile (s ...) c)], [(switch e ((N s ...) ...) (default ...))],
    [(call! f e ...)], [(return [e])], [(break)]. *)

val to_string : Pf_mini.Ast.program -> string

(** Inverse of {!to_string}. [Error] carries a one-line message with a
    character offset. *)
val parse : string -> (Pf_mini.Ast.program, string) result
