type t = {
  name : string;
  description : string;
  program : Pf_isa.Program.t;
  setup : Pf_isa.Machine.t -> unit;
  fast_forward : int;
  window : int;
  result_addr : int;
  mini : Pf_mini.Ast.program option;
}

type decl = {
  d_name : string;
  d_fast_forward : int;
  d_window : int;
  build : unit -> t;
}

let declare ~name ~description ~fast_forward ~window prog init =
  let build () =
    let compiled = Pf_mini.Compile.compile prog in
    { name;
      description;
      program = compiled.Pf_mini.Compile.program;
      setup = (fun m -> init m compiled.Pf_mini.Compile.address_of);
      fast_forward;
      window;
      result_addr =
        (try compiled.Pf_mini.Compile.address_of "result"
         with Not_found -> -1);
      mini = Some prog }
  in
  { d_name = name; d_fast_forward = fast_forward; d_window = window; build }

let fill_words rng m ~base ~words ~mask =
  for k = 0 to words - 1 do
    Pf_isa.Machine.write_i64 m (base + (8 * k)) (Int64.logand (Rng.next rng) mask)
  done

(* Sattolo's algorithm: a single cycle covering every record. *)
let fill_permutation rng m ~base ~slots ~stride =
  let perm = Array.init slots (fun k -> k) in
  for k = slots - 1 downto 1 do
    let j = Rng.int rng k in
    let tmp = perm.(k) in
    perm.(k) <- perm.(j);
    perm.(j) <- tmp
  done;
  (* perm is a permutation; build successor links along its cycle order *)
  for k = 0 to slots - 1 do
    let this = base + (perm.(k) * stride) in
    let next = base + (perm.((k + 1) mod slots) * stride) in
    Pf_isa.Machine.write_i64 m this (Int64.of_int next)
  done
