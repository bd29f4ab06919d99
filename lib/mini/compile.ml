open Pf_isa

type compiled = {
  program : Program.t;
  address_of : string -> int;
}

(* Code starts at [base], globals and switch tables at [data_base], and
   [__start] calls [entry]. *)
let base = 0x1000
let data_base = 0x100000
let entry = "main"

(* Where a variable lives. *)
type place =
  | In_sreg of Reg.t
  | In_slot of int (* sp-relative byte offset *)
  | In_global of int (* absolute address of an 8-byte scalar *)

type fenv = {
  asm : Asm.t;
  places : (string, place) Hashtbl.t;
  epilogue : string;
  mutable break_to : string list; (* stack of loop exit labels *)
}

type genv = {
  globals : (string, int) Hashtbl.t; (* name -> address, incl. scalar globals *)
  global_sizes : (string, int) Hashtbl.t;
  mutable next_data : int;
  mutable tables : (int * string list) list; (* switch tables to fill *)
  funcs : (string, Ast.func) Hashtbl.t;
}

let temps = Reg.[ t0; t1; t2; t3; t4; t5; t6; t7; t8; t9 ]
let sregs = Reg.[ s0; s1; s2; s3; s4; s5; s6; s7 ]

let alloc_temp pool =
  match pool with
  | r :: rest -> (r, rest)
  | [] -> invalid_arg "Mini: expression too deep for the temporary pool"

(* Pre-scan a body for every [Let]-bound name, in first-binding order. *)
let rec let_names acc stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | Ast.Let (x, _) -> if List.mem x acc then acc else acc @ [ x ]
      | Ast.If (_, a, b) -> let_names (let_names acc a) b
      | Ast.While (_, b) | Ast.Do_while (b, _) -> let_names acc b
      | Ast.Switch (_, cases, d) ->
          let acc = List.fold_left (fun acc (_, b) -> let_names acc b) acc cases in
          let_names acc d
      | Ast.Set _ | Ast.Store _ | Ast.Call_stmt _ | Ast.Return _ | Ast.Break -> acc)
    acc stmts

let place_of env x =
  match Hashtbl.find_opt env.places x with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Mini: unknown variable %s" x)

let read_var env dst x =
  match place_of env x with
  | In_sreg r -> if r <> dst then Asm.mv env.asm dst r
  | In_slot off -> Asm.load env.asm Instr.D dst Reg.sp off
  | In_global addr ->
      Asm.li env.asm dst (Int64.of_int addr);
      Asm.load env.asm Instr.D dst dst 0

let write_var env genv src x =
  ignore genv;
  match place_of env x with
  | In_sreg r -> if r <> src then Asm.mv env.asm r src
  | In_slot off -> Asm.store env.asm Instr.D src Reg.sp off
  | In_global addr ->
      (* address formed in $at, which the expression evaluator never uses *)
      Asm.li env.asm Reg.at (Int64.of_int addr);
      Asm.store env.asm Instr.D src Reg.at 0

(* Evaluate [e] into a register drawn from [pool]; returns that register
   and the pool without it. *)
let rec eval genv env pool e : Reg.t * Reg.t list =
  let a = env.asm in
  match e with
  | Ast.Const n ->
      let r, rest = alloc_temp pool in
      Asm.li a r n;
      (r, rest)
  | Ast.Var x ->
      let r, rest = alloc_temp pool in
      read_var env r x;
      (r, rest)
  | Ast.Addr x -> (
      match Hashtbl.find_opt genv.globals x with
      | Some addr ->
          let r, rest = alloc_temp pool in
          Asm.li a r (Int64.of_int addr);
          (r, rest)
      | None -> invalid_arg (Printf.sprintf "Mini: unknown global %s" x))
  | Ast.Load (w, signed, addr_e) ->
      let r, rest = eval genv env pool addr_e in
      Asm.load a w ~signed r r 0;
      (r, rest)
  | Ast.Binop (op, e1, e2) ->
      let r1, rest1 = eval genv env pool e1 in
      let r2, _ = eval genv env rest1 e2 in
      Asm.alu a op r1 r1 r2;
      (r1, rest1)
  | Ast.Cmp (rel, e1, e2) ->
      let r1, rest1 = eval genv env pool e1 in
      let r2, _ = eval genv env rest1 e2 in
      (match rel with
      | Ast.Rlt -> Asm.alu a Instr.Slt r1 r1 r2
      | Ast.Rgt -> Asm.alu a Instr.Slt r1 r2 r1
      | Ast.Rge ->
          Asm.alu a Instr.Slt r1 r1 r2;
          Asm.alui a Instr.Xor r1 r1 1L
      | Ast.Rle ->
          Asm.alu a Instr.Slt r1 r2 r1;
          Asm.alui a Instr.Xor r1 r1 1L
      | Ast.Rne ->
          Asm.alu a Instr.Xor r1 r1 r2;
          Asm.alu a Instr.Sltu r1 Reg.zero r1
      | Ast.Req ->
          Asm.alu a Instr.Xor r1 r1 r2;
          Asm.alu a Instr.Sltu r1 Reg.zero r1;
          Asm.alui a Instr.Xor r1 r1 1L);
      (r1, rest1)
  | Ast.Call _ ->
      invalid_arg "Mini: calls are only allowed as the direct value of Let/Set"

(* Compile a call; the result is in $v0. *)
let compile_call genv env name args =
  if not (Hashtbl.mem genv.funcs name) then
    invalid_arg (Printf.sprintf "Mini: unknown function %s" name);
  if List.length args > 4 then
    invalid_arg (Printf.sprintf "Mini: %s called with more than 4 arguments" name);
  let regs =
    List.fold_left
      (fun (acc, pool) arg ->
        let r, rest = eval genv env pool arg in
        (acc @ [ r ], rest))
      ([], temps) args
    |> fst
  in
  List.iteri (fun k r -> Asm.mv env.asm Reg.(List.nth [ a0; a1; a2; a3 ] k) r) regs;
  Asm.jal env.asm name

(* Branch to [target] when [cond] is false. *)
let branch_unless genv env cond target =
  let a = env.asm in
  match cond with
  | Ast.Cmp (Ast.Req, e1, e2) ->
      let r1, rest = eval genv env temps e1 in
      let r2, _ = eval genv env rest e2 in
      Asm.br a Instr.Ne r1 r2 target
  | Ast.Cmp (Ast.Rne, e1, e2) ->
      let r1, rest = eval genv env temps e1 in
      let r2, _ = eval genv env rest e2 in
      Asm.br a Instr.Eq r1 r2 target
  | _ ->
      let r, _ = eval genv env temps cond in
      Asm.br a Instr.Eq r Reg.zero target

(* Branch to [target] when [cond] is true. *)
let branch_if genv env cond target =
  let a = env.asm in
  match cond with
  | Ast.Cmp (Ast.Req, e1, e2) ->
      let r1, rest = eval genv env temps e1 in
      let r2, _ = eval genv env rest e2 in
      Asm.br a Instr.Eq r1 r2 target
  | Ast.Cmp (Ast.Rne, e1, e2) ->
      let r1, rest = eval genv env temps e1 in
      let r2, _ = eval genv env rest e2 in
      Asm.br a Instr.Ne r1 r2 target
  | _ ->
      let r, _ = eval genv env temps cond in
      Asm.br a Instr.Ne r Reg.zero target

let rec compile_stmt genv env s =
  let a = env.asm in
  match s with
  | Ast.Let (x, e) | Ast.Set (x, e) -> (
      match e with
      | Ast.Call (f, args) ->
          compile_call genv env f args;
          write_var env genv Reg.v0 x
      | _ ->
          let r, _ = eval genv env temps e in
          write_var env genv r x)
  | Ast.Store (w, addr_e, val_e) ->
      let ra_, rest = eval genv env temps addr_e in
      let rv, _ = eval genv env rest val_e in
      Asm.store a w rv ra_ 0
  | Ast.If (cond, then_s, else_s) ->
      let else_l = Asm.fresh a "else" and end_l = Asm.fresh a "endif" in
      if else_s = [] then begin
        branch_unless genv env cond end_l;
        List.iter (compile_stmt genv env) then_s;
        Asm.label a end_l
      end
      else begin
        branch_unless genv env cond else_l;
        List.iter (compile_stmt genv env) then_s;
        Asm.j a end_l;
        Asm.label a else_l;
        List.iter (compile_stmt genv env) else_s;
        Asm.label a end_l
      end
  | Ast.While (cond, body) ->
      let head_l = Asm.fresh a "loop" and exit_l = Asm.fresh a "endloop" in
      branch_unless genv env cond exit_l;
      Asm.label a head_l;
      env.break_to <- exit_l :: env.break_to;
      List.iter (compile_stmt genv env) body;
      env.break_to <- List.tl env.break_to;
      branch_if genv env cond head_l;
      Asm.label a exit_l
  | Ast.Do_while (body, cond) ->
      let head_l = Asm.fresh a "loop" and exit_l = Asm.fresh a "endloop" in
      Asm.label a head_l;
      env.break_to <- exit_l :: env.break_to;
      List.iter (compile_stmt genv env) body;
      env.break_to <- List.tl env.break_to;
      branch_if genv env cond head_l;
      Asm.label a exit_l
  | Ast.Switch (sel, cases, default) ->
      compile_switch genv env sel cases default
  | Ast.Call_stmt (f, args) -> compile_call genv env f args
  | Ast.Return e ->
      (match e with
      | Some (Ast.Call (f, args)) -> compile_call genv env f args
      | Some e ->
          let r, _ = eval genv env temps e in
          Asm.mv a Reg.v0 r
      | None -> ());
      Asm.j a env.epilogue
  | Ast.Break -> (
      match env.break_to with
      | l :: _ -> Asm.j a l
      | [] -> invalid_arg "Mini: break outside a loop")

and compile_switch genv env sel cases default =
  let a = env.asm in
  if cases = [] then invalid_arg "Mini: switch with no cases";
  List.iter
    (fun (k, _) -> if k < 0 then invalid_arg "Mini: negative switch case")
    cases;
  let max_case = List.fold_left (fun m (k, _) -> max m k) 0 cases in
  if max_case > 255 then invalid_arg "Mini: switch case above 255";
  let default_l = Asm.fresh a "sw_default" and end_l = Asm.fresh a "sw_end" in
  let case_labels = List.map (fun (k, _) -> (k, Asm.fresh a "sw_case")) cases in
  let label_for k =
    match List.assoc_opt k case_labels with Some l -> l | None -> default_l
  in
  let table_addr = genv.next_data in
  let slots = List.init (max_case + 1) label_for in
  genv.next_data <- genv.next_data + (8 * (max_case + 1));
  genv.tables <- (table_addr, slots) :: genv.tables;
  (* bounds check, then dispatch through the table *)
  let r, rest = eval genv env temps sel in
  let t, _ = alloc_temp rest in
  Asm.alui a Instr.Sltu t r (Int64.of_int (max_case + 1));
  Asm.br a Instr.Eq t Reg.zero default_l;
  Asm.alui a Instr.Sll t r 3L;
  Asm.li a r (Int64.of_int table_addr);
  Asm.alu a Instr.Add t r t;
  Asm.load a Instr.D t t 0;
  Asm.jr a t;
  Asm.indirect_targets a
    (List.sort_uniq compare (default_l :: List.map snd case_labels));
  List.iter
    (fun (k, body) ->
      Asm.label a (label_for k);
      List.iter (compile_stmt genv env) body;
      Asm.j a end_l)
    cases;
  Asm.label a default_l;
  List.iter (compile_stmt genv env) default;
  Asm.label a end_l

let compile_func genv asm (f : Ast.func) =
  if List.length f.Ast.params > 4 then
    invalid_arg (Printf.sprintf "Mini: %s has more than 4 parameters" f.Ast.name);
  Asm.proc asm f.Ast.name;
  let names = let_names f.Ast.params f.Ast.body in
  let places = Hashtbl.create 16 in
  let n_sregs = min (List.length names) (List.length sregs) in
  let spilled = List.filteri (fun k _ -> k >= n_sregs) names in
  List.iteri
    (fun k x ->
      if k < n_sregs then Hashtbl.replace places x (In_sreg (List.nth sregs k)))
    names;
  List.iteri (fun k x -> Hashtbl.replace places x (In_slot (8 * k))) spilled;
  (* globals are visible wherever no local shadows them *)
  Hashtbl.iter
    (fun g addr ->
      if (not (Hashtbl.mem places g)) && Hashtbl.find genv.global_sizes g = 8 then
        Hashtbl.replace places g (In_global addr))
    genv.globals;
  let n_spill = List.length spilled in
  let frame = 8 * (n_spill + n_sregs + 1) in
  let epilogue = Asm.fresh asm "epilogue" in
  let env = { asm; places; epilogue; break_to = [] } in
  (* prologue *)
  Asm.alui asm Instr.Add Reg.sp Reg.sp (Int64.of_int (-frame));
  Asm.store asm Instr.D Reg.ra Reg.sp (frame - 8);
  List.iteri
    (fun k _ ->
      Asm.store asm Instr.D (List.nth sregs k) Reg.sp (8 * (n_spill + k)))
    (List.init n_sregs Fun.id);
  List.iteri
    (fun k x ->
      if k < 4 then write_var env genv Reg.(List.nth [ a0; a1; a2; a3 ] k) x)
    f.Ast.params;
  (* body *)
  List.iter (compile_stmt genv env) f.Ast.body;
  (* epilogue *)
  Asm.label asm epilogue;
  List.iteri
    (fun k _ -> Asm.load asm Instr.D (List.nth sregs k) Reg.sp (8 * (n_spill + k)))
    (List.init n_sregs Fun.id);
  Asm.load asm Instr.D Reg.ra Reg.sp (frame - 8);
  Asm.alui asm Instr.Add Reg.sp Reg.sp (Int64.of_int frame);
  Asm.jr asm Reg.ra

let compile p =
  let genv =
    { globals = Hashtbl.create 16;
      global_sizes = Hashtbl.create 16;
      next_data = data_base;
      tables = [];
      funcs = Hashtbl.create 16 }
  in
  List.iter
    (fun (name, size) ->
      if Hashtbl.mem genv.globals name then
        invalid_arg (Printf.sprintf "Mini: duplicate global %s" name);
      let size = (size + 7) / 8 * 8 in
      Hashtbl.replace genv.globals name genv.next_data;
      Hashtbl.replace genv.global_sizes name size;
      genv.next_data <- genv.next_data + size)
    p.Ast.globals;
  List.iter
    (fun (f : Ast.func) ->
      if Hashtbl.mem genv.funcs f.Ast.name then
        invalid_arg (Printf.sprintf "Mini: duplicate function %s" f.Ast.name);
      Hashtbl.replace genv.funcs f.Ast.name f)
    p.Ast.funcs;
  if not (Hashtbl.mem genv.funcs entry) then
    invalid_arg (Printf.sprintf "Mini: entry function %s not defined" entry);
  let asm = Asm.create ~base () in
  List.iter (compile_func genv asm) p.Ast.funcs;
  (* __start: fill the switch jump tables, call the entry, halt *)
  Asm.proc asm "__start";
  List.iter
    (fun (table_addr, slots) ->
      List.iteri
        (fun k l ->
          Asm.la asm Reg.t0 l;
          Asm.li asm Reg.t1 (Int64.of_int (table_addr + (8 * k)));
          Asm.store asm Instr.D Reg.t0 Reg.t1 0)
        slots)
    (List.rev genv.tables);
  Asm.jal asm entry;
  Asm.halt asm;
  let program = Asm.assemble asm ~entry:"__start" in
  { program;
    address_of =
      (fun name ->
        match Hashtbl.find_opt genv.globals name with
        | Some a -> a
        | None -> raise Not_found) }
