(* Content-addressed file store with digest-prefix sharding and an
   optional LRU entry cap. See cache_store.mli for the contract; the
   notes here are about the on-disk layout and locking.

   Layout: [dir/ab/<digest><ext>] where [ab] is the first two hex
   characters of the digest. Sharding keeps directory listings short
   under service load (a million entries is ~4k files per shard instead
   of one directory the filesystem has to scan linearly).

   The index of entries on disk is built by one walk of the shard
   directories: at [create] for a capped store, which must trim, and
   otherwise at the first [stats], the only reader of an uncapped
   store's index; a hit never needs it.

   Every mutation of the in-memory index, and every count, runs under
   [t.mutex]: a store is shared by Sweep worker domains and by
   polyflow_serve connection threads, and a [Pf_obs.Counters] bump is a
   plain read-modify-write. File reads and writes happen outside the
   lock — an entry evicted before its open is a plain miss, one
   evicted after it is still read whole from the open descriptor, and
   stores are temp-file + rename so readers can never observe a torn
   entry. *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
}

type t = {
  root : string;
  cap : int; (* 0 = unlimited *)
  ext : string; (* entry filename extension, e.g. ".run" *)
  prefix : string; (* counter prefix, also naming the store in warnings *)
  mutex : Mutex.t;
  ticks : (string, int) Hashtbl.t; (* digest -> last-use tick *)
  mutable tick : int;
  mutable indexed : bool; (* [ticks] holds every entry the walk found *)
  c_hits : Pf_obs.Counters.counter;
  c_misses : Pf_obs.Counters.counter;
  c_stores : Pf_obs.Counters.counter;
  c_evictions : Pf_obs.Counters.counter;
}

let is_hex_digest name =
  String.length name = 32
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       name

let digest_of_filename t name =
  match Filename.chop_suffix_opt ~suffix:t.ext name with
  | Some d when is_hex_digest d -> Some d
  | _ -> None

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    (* a concurrent creator winning the race is fine *)
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let shard_of digest = String.sub digest 0 2

let shard_dir t digest = Filename.concat t.root (shard_of digest)

let path t ~digest = Filename.concat (shard_dir t digest) (digest ^ t.ext)

let mtime_of p = try (Unix.stat p).Unix.st_mtime with Unix.Unix_error _ -> 0.

(* Add the entries on disk to the LRU index, oldest mtime first and
   older than any entry this process has used, so recency survives a
   daemon restart (hits refresh the file mtime below). Caller holds
   t.mutex. *)
let index t =
  let found = ref [] in
  Array.iter
    (fun shard ->
      if String.length shard = 2 then
        let sdir = Filename.concat t.root shard in
        if try Sys.is_directory sdir with Sys_error _ -> false then
          Array.iter
            (fun name ->
              match digest_of_filename t name with
              | Some d when shard_of d = shard ->
                  found := (d, mtime_of (Filename.concat sdir name)) :: !found
              | _ -> ())
            (try Sys.readdir sdir with Sys_error _ -> [||]))
    (try Sys.readdir t.root with Sys_error _ -> [||]);
  let entries =
    List.sort (fun (_, a) (_, b) -> compare (a : float) b) !found
  in
  let n = List.length entries in
  List.iteri
    (fun i (d, _) ->
      if not (Hashtbl.mem t.ticks d) then Hashtbl.replace t.ticks d (i - n))
    entries;
  t.indexed <- true

let evict_until_under_cap t =
  (* caller holds t.mutex. O(entries) per eviction; caps are modest and
     evictions amortize to one per store. *)
  if t.cap > 0 then
    while Hashtbl.length t.ticks > t.cap do
      let victim = ref None in
      Hashtbl.iter
        (fun d tick ->
          match !victim with
          | Some (_, best) when best <= tick -> ()
          | _ -> victim := Some (d, tick))
        t.ticks;
      match !victim with
      | None -> ()
      | Some (d, _) ->
          Hashtbl.remove t.ticks d;
          (try Sys.remove (path t ~digest:d) with Sys_error _ -> ());
          Pf_obs.Counters.incr t.c_evictions
    done

let create ?(cap = 0) ?counters ~ext ~counter_prefix ~dir () =
  mkdir_p dir;
  let reg =
    match counters with Some r -> r | None -> Pf_obs.Counters.create ()
  in
  let t =
    { root = dir;
      cap;
      ext;
      prefix = counter_prefix;
      mutex = Mutex.create ();
      ticks = Hashtbl.create 256;
      tick = 0;
      indexed = false;
      c_hits = Pf_obs.Counters.make reg (counter_prefix ^ "_hits");
      c_misses = Pf_obs.Counters.make reg (counter_prefix ^ "_misses");
      c_stores = Pf_obs.Counters.make reg (counter_prefix ^ "_stores");
      c_evictions = Pf_obs.Counters.make reg (counter_prefix ^ "_evictions") }
  in
  if cap > 0 then
    Mutex.protect t.mutex (fun () ->
        index t;
        evict_until_under_cap t);
  t

let dir t = t.root
let cap t = t.cap

let stats t =
  Mutex.protect t.mutex (fun () ->
      if not t.indexed then index t;
      { hits = Pf_obs.Counters.value t.c_hits;
        misses = Pf_obs.Counters.value t.c_misses;
        stores = Pf_obs.Counters.value t.c_stores;
        evictions = Pf_obs.Counters.value t.c_evictions;
        entries = Hashtbl.length t.ticks })

let store_serial = Atomic.make 0

(* count a hit or a store in [c] and mark [digest] most recently used,
   adopting entries written by other processes since the walk, and trim
   back under the cap *)
let touch t ~digest c =
  Mutex.lock t.mutex;
  Pf_obs.Counters.incr c;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.ticks digest t.tick;
  evict_until_under_cap t;
  Mutex.unlock t.mutex

let miss t =
  Mutex.protect t.mutex (fun () -> Pf_obs.Counters.incr t.c_misses);
  None

let invalid t ~path reason =
  Printf.eprintf "%s: ignoring %s (%s); will recompute\n%!" t.prefix path
    reason;
  miss t

(* The whole file, from one open, one fstat and (below 64 KiB, the
   Unix library's transfer size) one read; [None] if there is no file
   to open, which is a plain miss even when an eviction removed it just
   now. *)
let read_entry p =
  match Unix.openfile p [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let n = (Unix.fstat fd).Unix.st_size in
          let b = Bytes.create n in
          let rec fill off =
            if off < n then
              match Unix.read fd b off (n - off) with
              | 0 -> raise End_of_file
              | k -> fill (off + k)
          in
          fill 0;
          Some (Bytes.unsafe_to_string b))

let find t ~digest ~decode =
  let p = path t ~digest in
  match read_entry p with
  | exception _ -> invalid t ~path:p "unreadable or unparseable"
  | None -> miss t
  | Some text -> (
      match try decode text with _ -> Error "unreadable or unparseable" with
      | Ok v ->
          (* refresh recency on disk too, so LRU order survives a
             restart of the owning process *)
          (try Unix.utimes p 0. 0. with Unix.Unix_error _ -> ());
          touch t ~digest t.c_hits;
          Some v
      | Error reason -> invalid t ~path:p reason)

let store t ~digest content =
  let sdir = shard_dir t digest in
  mkdir_p sdir;
  (* atomic publish: rename within one directory can never expose a
     partial file, and the pid + per-process-unique serial in the temp
     name keeps concurrent writers (which only ever race on identical
     content) from colliding *)
  let tmp =
    Filename.concat sdir
      (Printf.sprintf ".tmp.%d.%d.%s%s" (Unix.getpid ())
         (Atomic.fetch_and_add store_serial 1)
         digest t.ext)
  in
  let oc = open_out_bin tmp in
  (match output_string oc content with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp (path t ~digest);
  touch t ~digest t.c_stores
