(* Content-addressed run cache: one Cache_store of binary run entries
   ([dir/ab/<digest>.run]). All the on-disk machinery (digest-prefix
   sharding, atomic publish, LRU cap with mtime-persisted recency,
   corrupt-entry-downgrades-to-miss) lives in lib/cache_store; this
   module owns only the run digest and the entry codec.

   The codec is modelled on Trace_store's. An entry is a header (magic,
   format version, the 32 hex characters of its own digest), the run,
   and a 16-byte raw MD5 of everything before it. In the run, ints are
   int64 LE, counts and string lengths int32 LE, [wall_s] its IEEE bits,
   and each record (run scalars, config, metrics counts) a fixed block
   of int64 fields, bools as 0 or 1, in record-field order ([Config.fields]
   for the config, [Metrics.count_names] for the counts); no decoder
   depends on evaluation order.
   Spawn categories are their index in [Spawn_point.all_categories].
   Any truncation, checksum or length mismatch, foreign magic or
   version, an entry filed under another digest, or an out-of-range
   field (a flag other than 0 or 1, a [Constant] member other than its
   value) decodes to [Error]; Cache_store then counts a miss and the
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

let create ?cap ?counters ~dir () =
  Cache_store.create ?cap ?counters ~ext:".run" ~counter_prefix:"run_cache"
    ~dir ()

let dir = Cache_store.dir
let cap = Cache_store.cap
let stats = Cache_store.stats
let path = Cache_store.path

(* Each distinct config's canonical JSON, encoded once per process: the
   figure grid's 360 specs hold 14 distinct configs in 249 copies, so
   the memo is keyed on the config's value (every field hashed), not
   its address. It empties when full, so a daemon sent ever-new configs
   holds at most [config_memo_size] of them. *)
module Config_memo = Hashtbl.Make (struct
  type t = Config.t

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 64
end)

let config_memo_size = 64
let config_memo = Config_memo.create config_memo_size
let config_memo_lock = Mutex.create ()

let config_json config =
  Mutex.protect config_memo_lock (fun () ->
      match Config_memo.find_opt config_memo config with
      | Some json -> json
      | None ->
          let json = Json.to_string (Codec.config_to_json config) in
          if Config_memo.length config_memo >= config_memo_size then
            Config_memo.reset config_memo;
          Config_memo.add config_memo config json;
          json)

let digest ~workload ~window ~fast_forward ~policy ~label ~config =
  (* every field is a full line of its own, so no two distinct keys can
     concatenate to the same string; the config goes in as its canonical
     JSON, so a new Config.t field changes every key unless it is
     [Non_default]: a config at its default keeps its old key, right only
     while that default reproduces the old timing *)
  let key =
    String.concat "\n"
      [ "polyflow-run-cache";
        Pf_uarch.Engine.timing_version;
        workload;
        string_of_int window;
        string_of_int fast_forward;
        policy;
        label;
        config_json config ]
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
  List.iter (fun (f : Config.field) -> int (f.get r.config)) Config.fields;
  Array.iter int (Metrics.counts r.metrics);
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

let config rd =
  List.fold_left
    (fun c (f : Config.field) ->
      let v = int rd in
      if f.flag && v <> 0 && v <> 1 then raise (Corrupt "bad flag");
      if f.presence = Constant && v <> f.get c then
        raise (Corrupt ("bad " ^ f.name));
      f.set c v)
    Config.superscalar Config.fields

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
        let config = config rd in
        let counts = ints rd (List.length Metrics.count_names) in
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
          metrics = Metrics.of_counts counts spawns;
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
