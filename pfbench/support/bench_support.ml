module Json = Pf_json.Json

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let alloc_words f =
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  ( v,
    g1.Gc.minor_words -. g0.Gc.minor_words
    +. (g1.Gc.major_words -. g0.Gc.major_words)
    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words) )

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_array l) 50.

let quartiles l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    (* statistics.quantiles(method="exclusive") step for step: position
       i*(n+1)/4 with j clamped to 1..n-1, so the outer quartiles of a
       short list extrapolate exactly as Python's do *)
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let save path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty json);
      output_char oc '\n')

(* read to end of file rather than to the reported length: /proc files
   report a length of zero *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        let n = input ic chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents b)

let with_history path ~entries doc =
  let prior =
    match Json.member_opt "history" (Json.of_string (read_file path)) with
    | Some (Json.List l) -> l
    | _ -> []
    | exception _ -> []
  in
  match doc with
  | Json.Obj fields ->
      Json.Obj
        (List.remove_assoc "history" fields
        @ [ ("history", Json.List (prior @ entries)) ])
  | j -> j

let children = ref []

let spawn prog args stdin stdout stderr =
  let pid = Unix.create_process prog args stdin stdout stderr in
  children := pid :: !children;
  pid

let rec reap ?(nohang = false) pid =
  match Unix.waitpid (if nohang then [ Unix.WNOHANG ] else []) pid with
  | 0, _ -> None
  | _, status ->
      children := List.filter (( <> ) pid) !children;
      Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ~nohang pid

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (try reap pid with Unix.Unix_error _ -> None))
    !children

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let temp_dir =
  let n = ref 0 in
  fun ~base prefix ->
    mkdir_p base;
    let rec fresh () =
      incr n;
      let d =
        Filename.concat base (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !n)
      in
      if Sys.file_exists d then fresh ()
      else begin
        Unix.mkdir d 0o755;
        d
      end
    in
    fresh ()
