type finding = { repro : Repro.t; path : string option }
type summary = { executed : int; findings : finding list }

(* splitmix64-style finaliser: adjacent indexes map to unrelated,
   well-mixed generator seeds *)
let sub_seed ~seed ~index =
  let open Int64 in
  let z =
    add (of_int seed) (mul (of_int (index + 1)) 0x9E3779B97F4A7C15L)
  in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logor (logand z 0x3FFFFFFFFFFFFFFL) 1L)

let check_one ~gen ?policies ~loopnest ~shrink_budget s =
  match (gen : Repro.gen_kind) with
  | Repro.Mini -> (
      let p = Gen_mini.generate ~loopnest ~seed:s () in
      match Oracle.check_mini ?policies p with
      | Oracle.Pass -> None
      | Oracle.Fail f ->
          let check = Oracle.check_mini ?policies in
          let small, _trials =
            Shrink.shrink ~check ~oracle:f.Oracle.oracle ~budget:shrink_budget
              p
          in
          (* the shrunk program's own detail, not the original's *)
          let f =
            match check small with Oracle.Fail f' -> f' | Oracle.Pass -> f
          in
          Some (f, Mini_text.to_string small))
  | Repro.Asm -> (
      let p = Gen_asm.generate ~seed:s in
      match Oracle.check_asm ?policies p with
      | Oracle.Pass -> None
      | Oracle.Fail f -> Some (f, Format.asprintf "%a" Pf_isa.Program.pp p))

let run ~gen ~seed ~count ?policies ?(mini_loopnest = false) ?corpus_dir
    ?time_budget ?(shrink_budget = 500) ?progress () =
  let t0 = Unix.gettimeofday () in
  let over_budget () =
    match time_budget with
    | None -> false
    | Some b -> Unix.gettimeofday () -. t0 > b
  in
  let findings = ref [] in
  let executed = ref 0 in
  (try
     for index = 0 to count - 1 do
       if over_budget () then raise Exit;
       let s = sub_seed ~seed ~index in
       (match
          check_one ~gen ?policies ~loopnest:mini_loopnest ~shrink_budget s
        with
       | None -> ()
       | Some (f, program_text) ->
           let repro =
             { Repro.gen; seed; index; oracle = f.Oracle.oracle;
               detail = f.Oracle.detail; program_text }
           in
           let path =
             Option.map (fun dir -> Repro.save ~dir repro) corpus_dir
           in
           findings := { repro; path } :: !findings);
       incr executed;
       Option.iter (fun p -> p index) progress
     done
   with Exit -> ());
  { executed = !executed; findings = List.rev !findings }

let replay ?policies path =
  match Repro.load path with
  | Error _ as e -> e
  | Ok r -> (
      match r.Repro.gen with
      | Repro.Mini when String.trim r.Repro.program_text <> "" -> (
          match Mini_text.parse r.Repro.program_text with
          | Error e -> Error ("bad program text: " ^ e)
          | Ok p -> Ok (r, Oracle.check_mini ?policies p))
      | Repro.Mini ->
          let s = sub_seed ~seed:r.Repro.seed ~index:r.Repro.index in
          let p = Gen_mini.generate ~seed:s () in
          Ok (r, Oracle.check_mini ?policies p)
      | Repro.Asm ->
          let s = sub_seed ~seed:r.Repro.seed ~index:r.Repro.index in
          let p = Gen_asm.generate ~seed:s in
          Ok (r, Oracle.check_asm ?policies p))
