(* Content-addressed run cache: one Cache_store of binary run entries
   ([dir/ab/<digest>.run]). All the on-disk machinery (digest-prefix
   sharding, atomic publish, LRU cap with mtime-persisted recency,
   corrupt-entry-downgrades-to-miss) lives in lib/cache_store; this
   module owns only the run digest and the entry codec.

   The codec is modelled on Trace_store's. An entry is a header (magic,
   format version, the 32 hex characters of its own digest), the run,
   and a 16-byte raw MD5 of everything before it. In the run, ints are
   int64 LE, counts and string lengths int32 LE, [wall_s] its IEEE bits,
   and each record (run scalars, config, metrics scalars) a fixed block
   of int64 fields in record-field order, bools as 0 or 1, so the
   decoder reads fields by index and never depends on evaluation order.
   Spawn categories are their index in [Spawn_point.all_categories].
   Any truncation, checksum or length mismatch, foreign magic or
   version, an entry filed under another digest, or an out-of-range
   field decodes to [Error]; Cache_store then counts a miss and the
   fresh result is published over the bad entry. *)

module Cache_store = Pf_cache_store.Cache_store
module Config = Pf_uarch.Config
module Metrics = Pf_uarch.Metrics

type stats = Cache_store.stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
}

type t = Cache_store.t

let warn ~path ~reason =
  Printf.eprintf "Run_cache: ignoring %s (%s); will resimulate\n%!" path reason

let create ?cap ?counters ~dir () =
  Cache_store.create ?cap ?counters ~ext:".run" ~on_invalid:warn
    ~counter_prefix:"run_cache" ~dir ()

let dir = Cache_store.dir
let cap = Cache_store.cap
let stats = Cache_store.stats
let path = Cache_store.path

let digest ~workload ~window ~fast_forward ~policy ~label ~config =
  (* every field is a full line of its own, so no two distinct keys can
     concatenate to the same string; the config goes in as its complete
     canonical JSON so that any new Config.t field automatically
     invalidates entries written before it existed *)
  let key =
    String.concat "\n"
      [ "polyflow-run-cache";
        Pf_uarch.Engine.timing_version;
        workload;
        string_of_int window;
        string_of_int fast_forward;
        policy;
        label;
        Json.to_string (Codec.config_to_json config) ]
  in
  Digest.to_hex (Digest.string key)

(* ---- entry codec ---- *)

let magic = "PFRN"
let format_version = 1
let digest_bytes = 32
let header_bytes = 8 + digest_bytes
let footer_bytes = 16

let categories = Array.of_list Pf_core.Spawn_point.all_categories

let category_index c =
  let rec go i = if categories.(i) = c then i else go (i + 1) in
  go 0

let int_of_bool b = if b then 1 else 0

let config_fields (c : Config.t) =
  [| c.width; c.fetch_tasks_per_cycle; c.max_tasks; c.rob_entries;
     c.scheduler_entries; c.fus; c.divert_entries; c.retire_width;
     c.min_mispredict_penalty; c.frontend_depth; c.fetch_buffer;
     c.max_spawn_distance; c.min_task_instrs; c.spawn_latency;
     c.squash_penalty; c.ras_depth; c.max_cycles_per_instr;
     int_of_bool c.biased_fetch; int_of_bool c.shared_history;
     int_of_bool c.rob_shares; int_of_bool c.divert_chains;
     int_of_bool c.sp_hint; int_of_bool c.feedback;
     int_of_bool c.split_spawning; int_of_bool c.no_event_skip;
     int_of_bool c.mem_tracker; c.tracker_entries; c.mem_sync_threshold;
     c.safety_store_pct; c.safety_branch_pct; c.safety_serial_ops;
     c.doacross_sync_distance |]

let config_count = Array.length (config_fields Config.superscalar)

(* every Metrics.t field except [spawns], which follows as a list *)
let metrics_fields (m : Metrics.t) =
  [| m.instructions; m.cycles; m.branch_mispredicts; m.indirect_mispredicts;
     m.return_mispredicts; m.squashes; m.squashed_instrs; m.diverted;
     m.tasks_spawned; m.max_live_tasks; m.l1i_misses; m.l1d_misses;
     m.l2_misses; m.stall_frontend; m.stall_divert; m.stall_sched;
     m.stall_exec |]

let metrics_count = 17 (* the length of [metrics_fields] *)

let encode ~digest (r : Codec.run) =
  let b = Buffer.create 1280 in
  let int v = Buffer.add_int64_le b (Int64.of_int v) in
  let count n = Buffer.add_int32_le b (Int32.of_int n) in
  let str s =
    count (String.length s);
    Buffer.add_string b s
  in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int format_version);
  Buffer.add_string b digest;
  str r.workload;
  str r.label;
  str r.policy;
  Array.iter int [| r.window; r.instructions; r.static_spawns |];
  Buffer.add_int64_le b (Int64.bits_of_float r.wall_s);
  Array.iter int (config_fields r.config);
  Array.iter int (metrics_fields r.metrics);
  count (List.length r.metrics.spawns);
  List.iter
    (fun (c, n) ->
      Buffer.add_uint8 b (category_index c);
      int n)
    r.metrics.spawns;
  count (List.length r.counters);
  List.iter
    (fun (name, v) ->
      str name;
      int v)
    r.counters;
  let body = Buffer.contents b in
  body ^ Digest.string body

exception Corrupt of string

(* a cursor over the run part of an entry; every read is bounds-checked
   against [stop], the start of the footer *)
type reader = { text : string; mutable pos : int; stop : int }

let take rd n =
  if rd.pos + n > rd.stop then raise (Corrupt "truncated");
  let p = rd.pos in
  rd.pos <- p + n;
  p

let int64 rd = String.get_int64_le rd.text (take rd 8)
let int rd = Int64.to_int (int64 rd)
let ints rd n = Array.init n (fun _ -> int rd)

let count rd =
  let n = Int32.to_int (String.get_int32_le rd.text (take rd 4)) in
  if n < 0 then raise (Corrupt "negative length");
  n

let str rd =
  let n = count rd in
  String.sub rd.text (take rd n) n

let list rd f =
  let rec go acc n = if n = 0 then List.rev acc else go (f rd :: acc) (n - 1) in
  go [] (count rd)

let bool v =
  match v with 0 -> false | 1 -> true | _ -> raise (Corrupt "bad flag")

let config_of_fields a : Config.t =
  { width = a.(0); fetch_tasks_per_cycle = a.(1); max_tasks = a.(2);
    rob_entries = a.(3); scheduler_entries = a.(4); fus = a.(5);
    divert_entries = a.(6); retire_width = a.(7);
    min_mispredict_penalty = a.(8); frontend_depth = a.(9);
    fetch_buffer = a.(10); max_spawn_distance = a.(11);
    min_task_instrs = a.(12); spawn_latency = a.(13);
    squash_penalty = a.(14); ras_depth = a.(15);
    max_cycles_per_instr = a.(16); biased_fetch = bool a.(17);
    shared_history = bool a.(18); rob_shares = bool a.(19);
    divert_chains = bool a.(20); sp_hint = bool a.(21);
    feedback = bool a.(22); split_spawning = bool a.(23);
    no_event_skip = bool a.(24); mem_tracker = bool a.(25);
    tracker_entries = a.(26); mem_sync_threshold = a.(27);
    safety_store_pct = a.(28); safety_branch_pct = a.(29);
    safety_serial_ops = a.(30); doacross_sync_distance = a.(31) }

let metrics_of_fields a spawns : Metrics.t =
  { instructions = a.(0); cycles = a.(1); branch_mispredicts = a.(2);
    indirect_mispredicts = a.(3); return_mispredicts = a.(4); spawns;
    squashes = a.(5); squashed_instrs = a.(6); diverted = a.(7);
    tasks_spawned = a.(8); max_live_tasks = a.(9); l1i_misses = a.(10);
    l1d_misses = a.(11); l2_misses = a.(12); stall_frontend = a.(13);
    stall_divert = a.(14); stall_sched = a.(15); stall_exec = a.(16) }

let spawn rd =
  let i = Char.code rd.text.[take rd 1] in
  if i >= Array.length categories then raise (Corrupt "bad spawn category");
  let n = int rd in
  (categories.(i), n)

let counter rd =
  let name = str rd in
  (name, int rd)

let decode ~digest text =
  let len = String.length text in
  if len < header_bytes + footer_bytes then Error "truncated"
  else
    let stop = len - footer_bytes in
    if String.sub text stop footer_bytes <> Digest.substring text 0 stop then
      Error "checksum mismatch"
    else if String.sub text 0 4 <> magic then Error "bad magic"
    else if Int32.to_int (String.get_int32_le text 4) <> format_version then
      Error "foreign format version"
    else if String.sub text 8 digest_bytes <> digest then
      Error "filed under another digest"
    else
      let rd = { text; pos = header_bytes; stop } in
      match
        let workload = str rd in
        let label = str rd in
        let policy = str rd in
        let scalars = ints rd 3 in
        let wall_s = Int64.float_of_bits (int64 rd) in
        let config = config_of_fields (ints rd config_count) in
        let fields = ints rd metrics_count in
        let spawns = list rd spawn in
        let counters = list rd counter in
        if rd.pos <> stop then raise (Corrupt "trailing bytes");
        { Codec.workload;
          label;
          policy;
          window = scalars.(0);
          instructions = scalars.(1);
          static_spawns = scalars.(2);
          wall_s;
          config;
          metrics = metrics_of_fields fields spawns;
          counters }
      with
      | run -> Ok run
      | exception Corrupt reason -> Error reason

(* ---- typed calls ---- *)

let find_run t ~digest ~workload ~label =
  Cache_store.find t ~digest ~decode:(fun text ->
      match decode ~digest text with
      | Ok (r : Codec.run) when r.workload <> workload || r.label <> label ->
          Error
            (Printf.sprintf "holds %s/%s, not %s/%s" r.workload r.label
               workload label)
      | result -> result)

let store_run t ~digest run = Cache_store.store t ~digest (encode ~digest run)

(* ---- JSON adapters ---- *)

let find t ~digest =
  Cache_store.find t ~digest ~decode:(decode ~digest)
  |> Option.map Codec.run_to_json

let store t ~digest run_json = store_run t ~digest (Codec.run_of_json run_json)
