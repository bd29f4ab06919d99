(* The traced sweep: replays one Sweep.execute through the public calls
   its documented contract names — probe every spec through the run
   cache, prepare every distinct (workload, window) in first-use order,
   group cache misses by window into lockstep batches of at most 8,
   simulate them and store each member — on the same number of domains,
   with a span around each call. Nothing inside the library is
   instrumented, so the replay's wall next to an untraced
   Sweep.execute's is the tracing overhead, and a replay that stops
   matching Sweep.execute shows up there too. *)

open Pf_uarch
module Sweep = Pf_report.Sweep
module Run_cache = Pf_report.Run_cache
module Trace_store = Pf_trace.Trace_store

let max_batch = 8

type stats = {
  probes : int;
  hits : int;
  simulated : int;
  batched : int;
  sim_instr : int;
}

(* Sweep's worker pool: items claimed from an atomic counter, one span
   buffer per domain, first failure re-raised in index order *)
let map_pool ~jobs ~(bufs : Span.buf array) ~parent f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker b () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (try Ok (f b ~parent arr.(i)) with e -> Error e);
        loop ()
      end
    in
    loop ()
  in
  if jobs <= 1 || n <= 1 then worker bufs.(0) ()
  else
    List.iter Domain.join
      (List.init (min jobs n) (fun k -> Domain.spawn (worker bufs.(k + 1))));
  Array.map
    (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
    results

let chunk k l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = k then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

let run ~jobs ~cache ~store (specs : Sweep.spec list) =
  let bufs = Array.init (jobs + 1) Span.buffer in
  let b0 = bufs.(0) in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let results : Sweep.run option array = Array.make n None in
  let stats = ref { probes = n; hits = 0; simulated = 0; batched = 0; sim_instr = 0 } in
  Span.record b0 "sweep.replay" (fun () ->
      let resolved =
        Span.record b0 "sweep.resolve" (fun () ->
            Array.map
              (fun (s : Sweep.spec) ->
                let wl = Option.get (Pf_workloads.Suite.find s.Sweep.workload) in
                ( s,
                  wl,
                  Option.value s.Sweep.window ~default:wl.Pf_workloads.Workload.window ))
              specs)
      in
      let digests = Array.make n "" in
      Array.iteri
        (fun i ((s : Sweep.spec), wl, window) ->
          Span.record b0 ~spec:i "sweep.probe" (fun () ->
              let d =
                Run_cache.digest ~workload:s.Sweep.workload ~window
                  ~fast_forward:wl.Pf_workloads.Workload.fast_forward
                  ~policy:(Pf_core.Policy.name s.Sweep.policy) ~label:s.Sweep.label
                  ~config:(Sweep.resolve_config s)
              in
              digests.(i) <- d;
              match Run_cache.find cache ~digest:d with
              | None -> ()
              | Some j -> (
                  match Sweep.run_of_json j with
                  | r when r.Sweep.workload = s.Sweep.workload && r.Sweep.label = s.Sweep.label ->
                      results.(i) <- Some r
                  | _ | (exception _) -> ())))
        resolved;
      let keys, batches =
        Span.record b0 "sweep.plan" (fun () ->
            let seen = Hashtbl.create 16 and keys = ref [] in
            let groups = Hashtbl.create 16 and order = ref [] in
            Array.iteri
              (fun i ((s : Sweep.spec), wl, window) ->
                let key = (s.Sweep.workload, window) in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  keys := (s.Sweep.workload, wl, window) :: !keys
                end;
                if results.(i) = None then
                  match Hashtbl.find_opt groups key with
                  | Some l -> l := i :: !l
                  | None ->
                      Hashtbl.add groups key (ref [ i ]);
                      order := key :: !order)
              resolved;
            ( Array.of_list (List.rev !keys),
              List.concat_map
                (fun key -> chunk max_batch (List.rev !(Hashtbl.find groups key)))
                (List.rev !order)
              |> List.map Array.of_list |> Array.of_list ))
      in
      let preps =
        Span.record b0 "sweep.prepare_pool" (fun () ->
            map_pool ~jobs ~bufs ~parent:(Span.current b0)
              (fun b ~parent (name, wl, window) ->
                Span.record b ~parent "prepare" (fun () ->
                    ( (name, window),
                      Run.prepare ~store wl.Pf_workloads.Workload.program
                        ~setup:wl.Pf_workloads.Workload.setup
                        ~fast_forward:wl.Pf_workloads.Workload.fast_forward ~window )))
              keys)
      in
      let prep_of = Hashtbl.create 16 in
      Array.iter (fun (k, p) -> Hashtbl.replace prep_of k p) preps;
      let out =
        Span.record b0 "sweep.simulate_pool" (fun () ->
            map_pool ~jobs ~bufs ~parent:(Span.current b0)
              (fun b ~parent idxs ->
                Span.record b ~parent ~spec:idxs.(0) "sweep.batch" (fun () ->
                    let (s0 : Sweep.spec), _, window0 = resolved.(idxs.(0)) in
                    let prep = Hashtbl.find prep_of (s0.Sweep.workload, window0) in
                    let nb = Array.length idxs in
                    let regs = Array.map (fun _ -> Pf_obs.Counters.create ()) idxs in
                    let spec k = let s, _, _ = resolved.(idxs.(k)) in s in
                    let t0 = Unix.gettimeofday () in
                    let metrics =
                      Span.record b "simulate" (fun () ->
                          if nb = 1 then
                            [ Run.simulate ~counters:regs.(0)
                                ~config:(Sweep.resolve_config (spec 0)) prep
                                ~policy:(spec 0).Sweep.policy ]
                          else
                            Run.simulate_batch prep
                              (List.init nb (fun k ->
                                   Run.batch_run ~counters:regs.(k)
                                     ~config:(Sweep.resolve_config (spec k))
                                     (spec k).Sweep.policy)))
                    in
                    let wall = (Unix.gettimeofday () -. t0) /. float_of_int nb in
                    List.mapi
                      (fun k m ->
                        let i = idxs.(k) in
                        let (s : Sweep.spec), _, window = resolved.(i) in
                        let r =
                          { Sweep.workload = s.Sweep.workload;
                            label = s.Sweep.label;
                            policy = Pf_core.Policy.name s.Sweep.policy;
                            config = Sweep.resolve_config s;
                            window;
                            instructions = Pf_trace.Tracer.length prep.Run.trace;
                            static_spawns = List.length prep.Run.all_spawns;
                            wall_s = wall;
                            metrics = m;
                            counters = Pf_obs.Counters.to_alist regs.(k) }
                        in
                        Span.record b ~spec:i "sweep.store" (fun () ->
                            Run_cache.store cache ~digest:digests.(i) (Sweep.run_to_json r));
                        (i, r))
                      metrics))
              batches)
      in
      Array.iter
        (List.iter (fun (i, (r : Sweep.run)) ->
             results.(i) <- Some r;
             stats :=
               { !stats with
                 simulated = !stats.simulated + 1;
                 sim_instr = !stats.sim_instr + r.Sweep.instructions }))
        out;
      let batched =
        Array.fold_left
          (fun a b -> if Array.length b >= 2 then a + Array.length b else a)
          0 batches
      in
      stats := { !stats with hits = n - !stats.simulated; batched });
  ( Array.to_list (Array.map Option.get results),
    !stats,
    Span.merge (Array.to_list bufs) )
