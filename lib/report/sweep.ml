open Pf_uarch

type spec = {
  workload : string;
  policy : Pf_core.Policy.t;
  label : string;
  config : Config.t option;
  window : int option;
}

let spec ?label ?config ?window workload policy =
  let label =
    match label with Some l -> l | None -> Pf_core.Policy.name policy
  in
  { workload; policy; label; config; window }

type run = {
  workload : string;
  label : string;
  policy : string;
  config : Config.t;
  window : int;
  instructions : int;
  static_spawns : int;
  wall_s : float;
  metrics : Metrics.t;
  counters : (string * int) list;
}

type prepared_window = {
  pw_workload : string;
  pw_window : int;
  pw_prepare_s : float;
}

(* ---- the worker pool ----

   Work items are claimed with an atomic counter; each result cell is
   written by exactly one domain and read only after [Domain.join], so
   no further synchronisation is needed. Item functions must not print:
   only the calling domain touches stdout/stderr (via [progress]). *)

let map_pool ?progress ~jobs f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  let notify done_ =
    match progress with Some p -> p ~done_ ~total:n | None -> ()
  in
  if jobs <= 1 || n <= 1 then
    Array.iteri
      (fun i x ->
        results.(i) <- Some (try Ok (f x) with e -> Error e);
        notify (i + 1))
      arr
  else begin
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    (* completion events wake the calling domain through a condition
       variable, so progress is reported per completion and the pool
       returns as soon as the last item finishes instead of sleeping out
       a fixed-step poll *)
    let mutex = Mutex.create () in
    let cond = Condition.create () in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (try Ok (f arr.(i)) with e -> Error e);
          Atomic.incr completed;
          Mutex.lock mutex;
          Condition.signal cond;
          Mutex.unlock mutex;
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    let reported = ref 0 in
    while !reported < n do
      Mutex.lock mutex;
      while Atomic.get completed = !reported do
        Condition.wait cond mutex
      done;
      Mutex.unlock mutex;
      reported := Atomic.get completed;
      notify !reported
    done;
    List.iter Domain.join domains
  end;
  (* propagate the first failure deterministically: the lowest-index
     item's exception, independent of which worker hit it or when *)
  Array.iter
    (function Some (Error e) -> raise e | Some (Ok _) | None -> ())
    results;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error _) | None -> assert false)
    results

(* ---- run (de)serialization ----

   Defined ahead of [execute] because the result cache stores and
   replays exactly this encoding. *)

let run_to_json r =
  Json.Obj
    [ ("workload", Json.String r.workload);
      ("label", Json.String r.label);
      ("policy", Json.String r.policy);
      ("window", Json.Int r.window);
      ("instructions", Json.Int r.instructions);
      ("static_spawns", Json.Int r.static_spawns);
      ("wall_s", Json.Float r.wall_s);
      ("config", Codec.config_to_json r.config);
      ("metrics", Codec.metrics_to_json r.metrics);
      ("counters", Codec.counters_to_json r.counters) ]

let run_of_json j =
  { workload = Json.to_str (Json.member "workload" j);
    label = Json.to_str (Json.member "label" j);
    policy = Json.to_str (Json.member "policy" j);
    window = Json.to_int (Json.member "window" j);
    instructions = Json.to_int (Json.member "instructions" j);
    static_spawns = Json.to_int (Json.member "static_spawns" j);
    wall_s = Json.to_float (Json.member "wall_s" j);
    config = Codec.config_of_json (Json.member "config" j);
    metrics = Codec.metrics_of_json (Json.member "metrics" j);
    (* additive schema-v1 field: absent in documents written before the
       counter registry existed *)
    counters =
      (match Json.member_opt "counters" j with
      | Some c -> Codec.counters_of_json c
      | None -> []) }

(* ---- the steps of one run: resolve, acquire, simulate_run ---- *)

let resolve_config (s : spec) =
  match s.config with Some c -> c | None -> Config.for_policy s.policy

type resolved = {
  r_spec : spec;
  r_workload : Pf_workloads.Workload.t;
  r_window : int;
  r_config : Config.t;
  r_digest : string;
}

type resolve_error = Unknown_workload | Non_positive_window of int

let resolve (s : spec) =
  match Pf_workloads.Suite.find s.workload with
  | None -> Error Unknown_workload
  | Some wl ->
      let window =
        Option.value s.window ~default:wl.Pf_workloads.Workload.window
      in
      if window <= 0 then Error (Non_positive_window window)
      else
        let config = resolve_config s in
        Ok
          { r_spec = s;
            r_workload = wl;
            r_window = window;
            r_config = config;
            r_digest =
              Run_cache.digest ~workload:s.workload ~window
                ~fast_forward:wl.Pf_workloads.Workload.fast_forward
                ~policy:(Pf_core.Policy.name s.policy) ~label:s.label ~config }

(* ---- window slots ----
   A waiting caller retries a preparation that raised (and fails the
   same way if the failure is deterministic) instead of waiting forever. *)

type slot_state = Empty | Preparing | Ready of Run.prepared

type slot = {
  sl_wl : Pf_workloads.Workload.t;
  sl_window : int;
  lock : Mutex.t;
  changed : Condition.t;  (* signalled when [state] leaves [Preparing] *)
  mutable state : slot_state;
  mutable pending : int;  (* [execute]: batches of the window to finish *)
  mutable prepare_s : float;  (* wall time of the successful preparation *)
}

let window_slot wl ~window =
  { sl_wl = wl;
    sl_window = window;
    lock = Mutex.create ();
    changed = Condition.create ();
    state = Empty;
    pending = 0;
    prepare_s = 0. }

let acquire ?trace_store slot =
  let claimed =
    Mutex.protect slot.lock (fun () ->
        let rec wait () =
          match slot.state with
          | Ready prep -> Some prep
          | Preparing ->
              Condition.wait slot.changed slot.lock;
              wait ()
          | Empty ->
              slot.state <- Preparing;
              None
        in
        wait ())
  in
  match claimed with
  | Some prep -> (prep, None)
  | None -> (
      let publish state =
        Mutex.protect slot.lock (fun () ->
            slot.state <- state;
            Condition.broadcast slot.changed)
      in
      let wl = slot.sl_wl in
      let t0 = Unix.gettimeofday () in
      match
        Run.prepare ?store:trace_store wl.Pf_workloads.Workload.program
          ~setup:wl.Pf_workloads.Workload.setup
          ~fast_forward:wl.Pf_workloads.Workload.fast_forward
          ~window:slot.sl_window
      with
      | prep ->
          slot.prepare_s <- Unix.gettimeofday () -. t0;
          publish (Ready prep);
          (prep, Some slot.prepare_s)
      | exception e ->
          publish Empty;
          raise e)

let release slot =
  Mutex.protect slot.lock (fun () ->
      slot.pending <- slot.pending - 1;
      if slot.pending = 0 then slot.state <- Empty)

let simulate_run ?cache ?sink r prep =
  let s = r.r_spec in
  let reg = Pf_obs.Counters.create () in
  let t0 = Unix.gettimeofday () in
  let metrics =
    Run.simulate ?sink ~counters:reg ~config:r.r_config prep ~policy:s.policy
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let run =
    { workload = s.workload;
      label = s.label;
      policy = Pf_core.Policy.name s.policy;
      config = r.r_config;
      window = r.r_window;
      instructions = Pf_trace.Tracer.length prep.Run.trace;
      static_spawns = List.length prep.Run.all_spawns;
      wall_s;
      metrics;
      counters = Pf_obs.Counters.to_alist reg }
  in
  Option.iter
    (fun c -> Run_cache.store c ~digest:r.r_digest (run_to_json run))
    cache;
  run

(* ---- sweep execution ---- *)

type exec_stats = {
  cached_runs : int;
  simulated_runs : int;
  batched_runs : int;
  batch_count : int;
  prepare_ms : float;
}

(* split [l] into consecutive chunks of at most [k] elements *)
let chunk k l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = k then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

let execute ?progress ?cache ?trace_store ?(batch = 8) ?on_stats ~jobs specs =
  let fail fmt = Printf.ksprintf invalid_arg ("Sweep.execute: " ^^ fmt) in
  let seen = Hashtbl.create 64 in
  let resolved =
    Array.of_list specs
    |> Array.map (fun (s : spec) ->
           let key = (s.workload, s.label) in
           match resolve s with
           | Error Unknown_workload -> fail "unknown workload %S" s.workload
           | Error (Non_positive_window w) ->
               fail "run %s/%s has window %d (must be > 0)" s.workload s.label w
           | Ok _ when Hashtbl.mem seen key ->
               fail "duplicate run %s/%s" s.workload s.label
           | Ok r ->
               Hashtbl.add seen key ();
               r)
  in
  (* ---- cache probe (calling domain) ----
     A hit replays the stored run verbatim (its original [wall_s]
     included, so a fully-hit sweep reproduces its document byte for
     byte); the misses left over are what gets simulated. Probing up
     front — instead of inside the worker items — is what lets the
     misses be grouped by window below. A probe costs about 0.1 ms per
     spec, mostly the JSON parse and run decode of its ~2 KB entry;
     on a fully cached sweep the probes are all the work there is. *)
  let nspec = Array.length resolved in
  let results : run option array = Array.make nspec None in
  Option.iter
    (fun c ->
      Array.iteri
        (fun i r ->
          let s = r.r_spec in
          match Run_cache.find c ~digest:r.r_digest with
          | None -> ()
          | Some j -> (
              (* a corrupt entry must never kill the sweep: any decode
                 failure downgrades to a miss *)
              let decoded = try Some (run_of_json j) with _ -> None in
              match decoded with
              | Some run when run.workload = s.workload && run.label = s.label
                ->
                  results.(i) <- Some run
              | _ ->
                  Printf.eprintf
                    "Run_cache: ignoring %s/%s entry that fails to decode; \
                     will resimulate\n\
                     %!"
                    s.workload s.label))
        resolved)
    cache;
  let cached_runs =
    Array.fold_left
      (fun a -> function Some _ -> a + 1 | None -> a)
      0 results
  in
  (* ---- batch formation ----
     Cache-miss specs that share a (workload, window) — and therefore a
     prepared window and its fast-forward — are grouped in first-use
     order and chunked to at most [batch] members; each group becomes
     one work item that simulates its members one after another on the
     shared prepared window. The groups' windows are the only ones
     prepared, so a fully cached sweep prepares nothing. *)
  let batch = max 1 batch in
  let groups : (string * int, slot * int list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  Array.iteri
    (fun i r ->
      if results.(i) = None then begin
        let key = (r.r_spec.workload, r.r_window) in
        match Hashtbl.find_opt groups key with
        | Some (_, l) -> l := i :: !l
        | None ->
            Hashtbl.add groups key
              (window_slot r.r_workload ~window:r.r_window, ref [ i ]);
            order := key :: !order
      end)
    resolved;
  let slots = List.rev_map (fun key -> Hashtbl.find groups key) !order in
  let batches =
    slots
    |> List.concat_map (fun (slot, members) ->
           let chunks = chunk batch (List.rev !members) in
           slot.pending <- List.length chunks;
           List.map (fun b -> (slot, Array.of_list b)) chunks)
    |> Array.of_list
  in
  let batched_runs =
    Array.fold_left
      (fun a (_, b) -> if Array.length b >= 2 then a + Array.length b else a)
      0 batches
  in
  let batch_count =
    Array.fold_left
      (fun a (_, b) -> if Array.length b >= 2 then a + 1 else a)
      0 batches
  in
  (* one work item per batch: simulate each member in turn against the
     window's slot and store its record; the release runs even when the
     preparation or a member raises, so the last batch of a window
     always drops it *)
  let exec_batch (slot, idxs) =
    Fun.protect
      ~finally:(fun () -> release slot)
      (fun () ->
        let prep, _ = acquire ?trace_store slot in
        List.map
          (fun i -> (i, simulate_run ?cache resolved.(i) prep))
          (Array.to_list idxs))
  in
  let out = map_pool ?progress ~jobs exec_batch batches in
  Array.iter (List.iter (fun (i, r) -> results.(i) <- Some r)) out;
  let prepared =
    List.map
      (fun (slot, _) ->
        { pw_workload = slot.sl_wl.Pf_workloads.Workload.name;
          pw_window = slot.sl_window;
          pw_prepare_s = slot.prepare_s })
      slots
  in
  (match on_stats with
  | Some f ->
      f
        { cached_runs;
          simulated_runs = nspec - cached_runs;
          batched_runs;
          batch_count;
          prepare_ms =
            1000.
            *. List.fold_left (fun a pw -> a +. pw.pw_prepare_s) 0. prepared }
  | None -> ());
  let runs =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false)
         results)
  in
  (runs, prepared)

(* ---- documents ---- *)

type t = {
  manifest : Manifest.t;
  runs : run list;
  extras : (string * Json.t) list;
}

let document ?(extras = []) ~tool ~jobs ~wall_s runs =
  { manifest = Manifest.create ~tool ~jobs ~wall_s; runs; extras }

let to_json t =
  Json.Obj
    ([ ("schema_version", Json.Int t.manifest.Manifest.schema_version);
       ("manifest", Manifest.to_json t.manifest);
       ("runs", Json.List (List.map run_to_json t.runs)) ]
    @ if t.extras = [] then [] else [ ("extras", Json.Obj t.extras) ])

let of_json j =
  let manifest = Manifest.of_json (Json.member "manifest" j) in
  let top_version = Json.to_int (Json.member "schema_version" j) in
  if top_version <> manifest.Manifest.schema_version then
    raise
      (Json.Decode_error
         "schema_version disagrees between document and manifest");
  { manifest;
    runs = List.map run_of_json (Json.to_list (Json.member "runs" j));
    extras =
      (match Json.member_opt "extras" j with
      | Some (Json.Obj fields) -> fields
      | _ -> []) }

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty (to_json t));
      output_char oc '\n')

let load path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_json (Json.of_string text)

(* ---- CSV ---- *)

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\""
    ^ String.concat "\"\"" (String.split_on_char '"' s)
    ^ "\""
  else s

let csv_line cells = String.concat "," (List.map csv_cell cells)

let to_csv t =
  let header =
    [ "workload"; "label"; "policy"; "window"; "static_spawns"; "wall_s" ]
    @ Codec.metrics_csv_header
  in
  let row r =
    [ r.workload; r.label; r.policy; string_of_int r.window;
      string_of_int r.static_spawns; Printf.sprintf "%.3f" r.wall_s ]
    @ Codec.metrics_csv_cells r.metrics
  in
  String.concat "\n" (csv_line header :: List.map (fun r -> csv_line (row r)) t.runs)
  ^ "\n"
