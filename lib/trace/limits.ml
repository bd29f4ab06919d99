(* Every load takes Figure 8's L1D hit latency, the engine's best case. *)
let load_latency = 2

let finish_times ~serialize_branches (tr : Tracer.t) =
  let n = tr.Tracer.n in
  let finish = Array.make n 0 in
  let last_branch_finish = ref 0 in
  let horizon = ref 0 in
  for i = 0 to n - 1 do
    let ready p = if p < 0 then 0 else finish.(p) in
    let start =
      max
        (if serialize_branches then !last_branch_finish else 0)
        (max (ready tr.Tracer.src1.(i))
           (max (ready tr.Tracer.src2.(i)) (ready tr.Tracer.memsrc.(i))))
    in
    let kind = tr.Tracer.kind.(i) in
    let latency =
      if kind = Pf_isa.Instr.k_load then load_latency else tr.Tracer.lat.(i)
    in
    finish.(i) <- start + latency;
    if kind = Pf_isa.Instr.k_branch || kind = Pf_isa.Instr.k_ind_jump then
      last_branch_finish := max !last_branch_finish finish.(i);
    if finish.(i) > !horizon then horizon := finish.(i)
  done;
  (n, !horizon)

let ipc_of (n, horizon) =
  if horizon = 0 then 0. else float_of_int n /. float_of_int horizon

let dataflow_ipc tr = ipc_of (finish_times ~serialize_branches:false tr)

let single_flow_ipc tr = ipc_of (finish_times ~serialize_branches:true tr)
