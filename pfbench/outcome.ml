(* What one workload run measured: operations attempted and failed
   (digest mismatches, error replies, timeouts), metric values by name,
   and details that go to BENCH_pfbench.json only. *)

type t = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  extra : (string * Pf_json.Json.t) list;
}
