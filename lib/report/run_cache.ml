(* Content-addressed run cache: one Cache_store of {digest, run} JSON
   wrappers. All the on-disk machinery (digest-prefix sharding, atomic
   publish, LRU cap with mtime-persisted recency, legacy-layout
   migration, corrupt-entry-downgrades-to-miss) lives in
   lib/cache_store; this module owns only the run digest and the JSON
   entry codec. *)

module Cache_store = Pf_cache_store.Cache_store

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
  Cache_store.create ?cap ?counters ~ext:".json" ~on_invalid:warn
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

let find t ~digest =
  Cache_store.find t ~digest ~decode:(fun text ->
      match Json.of_string text with
      | exception _ -> Error "unreadable or unparseable"
      | j -> (
          match (Json.member_opt "digest" j, Json.member_opt "run" j) with
          | Some (Json.String d), Some run when d = digest -> Ok run
          | _ -> Error "digest mismatch or missing members"))

let store t ~digest run_json =
  let entry =
    Json.Obj [ ("digest", Json.String digest); ("run", run_json) ]
  in
  Cache_store.store t ~digest (Json.to_string_pretty entry ^ "\n")
