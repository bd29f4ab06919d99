(* Each workload is built once, here, and every lookup returns that
   value: building compiles a Mini program (up to ~3 ms for vortex),
   and the trace store's fingerprint memo is keyed on the physical
   (program, setup) pair. Eager rather than [Lazy]: the sweep's domain
   pool and the daemon's threads resolve names concurrently, and
   forcing one lazy value from two domains at once raises
   [Lazy.Undefined]. *)

(* The paper's figures sweep only the 12 SPEC-shaped kernels; the
   loop-nest family has its own figure (bench --loopnest). *)
let kernels =
  List.map
    (fun f -> f ())
    [ W_bzip2.workload; W_crafty.workload; W_gap.workload; W_gcc.workload;
      W_gzip.workload; W_mcf.workload; W_parser.workload; W_perlbmk.workload;
      W_twolf.workload; W_vortex.workload; W_vpr_place.workload;
      W_vpr_route.workload ]

let workloads = kernels @ List.map (fun f -> f ()) Loopnest.registered

let name w = w.Workload.name
let all () = workloads
let find n = List.find_opt (fun w -> name w = n) workloads
let names = List.map name workloads
let spec_names = List.map name kernels
