(* Output correctness: an MD5 per run over its metrics and counters
   bytes (wall_s excluded), compared against the committed
   expected/<set>.digests files or against a reference simulation. *)

module Json = Pf_json.Json
module Sweep = Pf_report.Sweep
module Codec = Pf_report.Codec

let digest_of_members ~metrics ~counters =
  Digest.to_hex
    (Digest.string (Json.to_string metrics ^ "\n" ^ Json.to_string counters))

let run_digest (r : Sweep.run) =
  digest_of_members
    ~metrics:(Codec.metrics_to_json r.Sweep.metrics)
    ~counters:(Codec.counters_to_json r.Sweep.counters)

(* a served reply's "run" member carries the same record bytes *)
let reply_run_digest run =
  digest_of_members ~metrics:(Json.member "metrics" run)
    ~counters:(Json.member "counters" run)

let run_key (r : Sweep.run) =
  Grid.key ~workload:r.Sweep.workload ~label:r.Sweep.label ~window:r.Sweep.window

(* expected/<set>.digests: one "workload label window md5" line per run *)
let expected_path set = Filename.concat "pfbench/expected" (set ^ ".digests")

let load_expected path =
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i when line <> "" ->
          Hashtbl.replace tbl (String.sub line 0 i)
            (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> ())
    (String.split_on_char '\n' (Pf_bench_support.Bench_support.read_file path));
  tbl

let write_expected path (runs : Sweep.run list) =
  let lines =
    List.sort compare
      (List.map (fun r -> run_key r ^ " " ^ run_digest r) runs)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* number of (key, digest) pairs that disagree with [expected] (a key
   missing from it counts as a mismatch) *)
let mismatches expected pairs =
  List.fold_left
    (fun n (k, d) ->
      match Hashtbl.find_opt expected k with
      | Some e when e = d -> n
      | _ -> n + 1)
    0 pairs
