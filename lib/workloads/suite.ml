(* Each workload is declared here and built on its first use: building
   compiles a Mini program (up to ~3 ms for vortex), which a run-cache
   hit never needs, since its key reads only the declaration. Each
   entry builds under its own lock rather than through a [Lazy]: the
   sweep's domain pool and the daemon's threads build concurrently, and
   forcing one lazy value from two domains at once raises
   [Lazy.Undefined]. *)

type entry = {
  decl : Workload.decl;
  lock : Mutex.t;
  mutable built : Workload.t option;
}

let entry_of decl = { decl; lock = Mutex.create (); built = None }

(* The paper's figures sweep only the 12 SPEC-shaped kernels; the
   loop-nest family has its own figure (bench --loopnest). *)
let kernels =
  List.map entry_of
    [ W_bzip2.workload; W_crafty.workload; W_gap.workload; W_gcc.workload;
      W_gzip.workload; W_mcf.workload; W_parser.workload; W_perlbmk.workload;
      W_twolf.workload; W_vortex.workload; W_vpr_place.workload;
      W_vpr_route.workload ]

let entries = kernels @ List.map entry_of Loopnest.registered

let name e = e.decl.Workload.d_name
let decl e = e.decl
let entry n = List.find_opt (fun e -> name e = n) entries

let build e =
  Mutex.protect e.lock (fun () ->
      match e.built with
      | Some w -> w
      | None ->
          let w = e.decl.Workload.build () in
          e.built <- Some w;
          w)

let is_built e = Mutex.protect e.lock (fun () -> e.built <> None)
let find n = Option.map build (entry n)
let all () = List.map build entries
let names = List.map name entries
let spec_names = List.map name kernels
