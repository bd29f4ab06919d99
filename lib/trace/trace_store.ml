(* Persistent preparation cache. See trace_store.mli for the contract;
   the notes here are about the codec, the key, and locking.

   One Pf_cache_store.Cache_store of binary trace entries
   ([dir/ab/<digest>.trace]) holds a captured window's dynamic columns
   with producer indices already filled, so a hit skips the machine
   set-up, the fast-forward interpretation, the window capture AND the
   dependence pass. A miss does exactly what Run.prepare does without a
   store, then publishes.

   The key is an MD5 over (format version, program content digest,
   post-setup machine state digest, fast_forward, window). The setup
   function is a closure and cannot be hashed, so it is fingerprinted by
   effect: run it on a fresh machine and digest the architectural state
   (Machine.state_digest hashes only the written span, tracked by write
   watermarks). Both digests are memoized per physical (program, setup)
   pair, which makes repeat preparations of a long-lived workload value
   skip the machine creation entirely; the memo is sound because setups
   are required to be deterministic (the run cache already assumes
   this repo-wide).

   Records are 29 bytes, one per window instruction: pc/next_pc/src1/
   src2/memsrc as int32 LE, addr as int64 LE, a taken flag byte. The
   static columns (kind, latency, $sp flags, backward) are not stored:
   the decoder fills them from the caller's program by pc through
   Tracer.filler, exactly as capture does. A 16-byte raw MD5 footer
   covers header + records; any mismatch, truncation, unmapped pc or
   foreign format version downgrades to a miss (Cache_store
   re-publishes the fresh result over the bad entry).

   The mutex guards the fingerprint memo and the byte count (a
   [Pf_obs.Counters] bump is a plain read-modify-write); machine
   execution, file IO and codec work happen outside it. *)

module Cache_store = Pf_cache_store.Cache_store

let format_version = 1
let magic = "PFTR"
let header_bytes = 24
let record_bytes = 29
let footer_bytes = 16

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
  bytes : int;
}

type t = {
  store : Cache_store.t;
  mutex : Mutex.t;
  (* physical (program, setup) -> (program digest, post-setup state
     fingerprint); newest first, capped *)
  mutable memo :
    (Pf_isa.Program.t * (Pf_isa.Machine.t -> unit) * string * string) list;
  c_bytes : Pf_obs.Counters.counter;
}

let create ?cap ?counters ~dir () =
  let reg =
    match counters with Some r -> r | None -> Pf_obs.Counters.create ()
  in
  { store =
      Cache_store.create ?cap ~counters:reg ~ext:".trace"
        ~counter_prefix:"trace_store" ~dir ();
    mutex = Mutex.create ();
    memo = [];
    c_bytes = Pf_obs.Counters.make reg "trace_store_bytes" }

let dir t = Cache_store.dir t.store
let cap t = Cache_store.cap t.store
let path t ~digest = Cache_store.path t.store ~digest

let stats t =
  let s = Cache_store.stats t.store in
  { hits = s.Cache_store.hits;
    misses = s.Cache_store.misses;
    stores = s.Cache_store.stores;
    evictions = s.Cache_store.evictions;
    entries = s.Cache_store.entries;
    bytes = Pf_obs.Counters.value t.c_bytes }

(* --- keying ----------------------------------------------------------- *)

let program_digest (p : Pf_isa.Program.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "polyflow-program\n";
  Buffer.add_string b (string_of_int p.Pf_isa.Program.base);
  Buffer.add_char b '\n';
  Buffer.add_string b (string_of_int p.Pf_isa.Program.entry_pc);
  Buffer.add_char b '\n';
  Array.iter
    (fun i ->
      Buffer.add_string b (Pf_isa.Instr.to_string i);
      Buffer.add_char b '\n')
    p.Pf_isa.Program.code;
  List.iter
    (fun (pr : Pf_isa.Program.proc) ->
      Buffer.add_string b
        (Printf.sprintf "proc %s %d %d\n" pr.Pf_isa.Program.name
           pr.Pf_isa.Program.entry pr.Pf_isa.Program.last))
    p.Pf_isa.Program.procs;
  List.iter
    (fun (pc, targets) ->
      Buffer.add_string b
        (Printf.sprintf "indirect %d [%s]\n" pc
           (String.concat ";" (List.map string_of_int targets))))
    p.Pf_isa.Program.indirect_targets;
  Digest.to_hex (Digest.bytes (Buffer.to_bytes b))

let memo_cap = 64

(* (program digest, setup fingerprint, machine) for this (program,
   setup) pair. The machine — fresh, post-setup, not yet stepped — is
   only built when the memo misses, and is returned so the miss path
   can reuse it instead of paying creation twice. *)
let fingerprint t program ~setup =
  let cached = ref None in
  Mutex.lock t.mutex;
  List.iter
    (fun (p, s, pd, fp) ->
      if !cached = None && p == program && s == setup then
        cached := Some (pd, fp))
    t.memo;
  Mutex.unlock t.mutex;
  match !cached with
  | Some (pd, fp) -> (pd, fp, None)
  | None ->
      let pd = program_digest program in
      let machine = Pf_isa.Machine.create program in
      setup machine;
      let fp = Pf_isa.Machine.state_digest machine in
      Mutex.lock t.mutex;
      t.memo <- (program, setup, pd, fp) :: t.memo;
      if List.length t.memo > memo_cap then
        t.memo <- List.filteri (fun i _ -> i < memo_cap) t.memo;
      Mutex.unlock t.mutex;
      (pd, fp, Some machine)

let digest_of ~program_digest:pd ~fingerprint:fp ~fast_forward ~window =
  let key =
    String.concat "\n"
      [ "polyflow-trace-store";
        string_of_int format_version;
        pd;
        fp;
        string_of_int fast_forward;
        string_of_int window ]
  in
  Digest.to_hex (Digest.string key)

let digest t program ~setup ~fast_forward ~window =
  let pd, fp, _machine = fingerprint t program ~setup in
  digest_of ~program_digest:pd ~fingerprint:fp ~fast_forward ~window

(* --- codec ------------------------------------------------------------ *)

let encode (trace : Tracer.t) =
  let n = trace.Tracer.n in
  let b = Buffer.create (header_bytes + (n * record_bytes) + footer_bytes) in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int format_version);
  Buffer.add_int64_le b (Int64.of_int trace.Tracer.fast_forwarded);
  Buffer.add_int64_le b (Int64.of_int n);
  for i = 0 to n - 1 do
    Buffer.add_int32_le b (Int32.of_int trace.Tracer.pc.(i));
    Buffer.add_int32_le b (Int32.of_int trace.Tracer.next_pc.(i));
    Buffer.add_int64_le b (Int64.of_int trace.Tracer.addr.(i));
    Buffer.add_int32_le b (Int32.of_int trace.Tracer.src1.(i));
    Buffer.add_int32_le b (Int32.of_int trace.Tracer.src2.(i));
    Buffer.add_int32_le b (Int32.of_int trace.Tracer.memsrc.(i));
    Buffer.add_char b (if trace.Tracer.taken.(i) then '\001' else '\000')
  done;
  let body = Buffer.contents b in
  body ^ Digest.string body

exception Corrupt of string

let decode program text =
  try
    let len = String.length text in
    if len < header_bytes + footer_bytes then raise (Corrupt "truncated");
    let body_len = len - footer_bytes in
    if String.sub text body_len footer_bytes
       <> Digest.string (String.sub text 0 body_len)
    then raise (Corrupt "checksum mismatch");
    if String.sub text 0 4 <> magic then raise (Corrupt "bad magic");
    if Int32.to_int (String.get_int32_le text 4) <> format_version then
      raise (Corrupt "foreign format version");
    let fast_forwarded = Int64.to_int (String.get_int64_le text 8) in
    let n = Int64.to_int (String.get_int64_le text 16) in
    if n < 0 || body_len - header_bytes <> n * record_bytes then
      raise (Corrupt "record count mismatch");
    let trace = Tracer.create program ~fast_forwarded n in
    let fill = Tracer.filler trace in
    let int32_at off = Int32.to_int (String.get_int32_le text off) in
    for i = 0 to n - 1 do
      let off = header_bytes + (i * record_bytes) in
      let pc = int32_at off in
      if not (Pf_isa.Program.in_range program pc) then
        raise (Corrupt "pc unmapped in program");
      let taken =
        match text.[off + 28] with
        | '\000' -> false
        | '\001' -> true
        | _ -> raise (Corrupt "bad taken flag")
      in
      fill i ~pc ~next_pc:(int32_at (off + 4)) ~taken
        ~addr:(Int64.to_int (String.get_int64_le text (off + 8)));
      trace.Tracer.src1.(i) <- int32_at (off + 16);
      trace.Tracer.src2.(i) <- int32_at (off + 20);
      trace.Tracer.memsrc.(i) <- int32_at (off + 24)
    done;
    Ok trace
  with Corrupt reason -> Error reason

(* --- prepare ----------------------------------------------------------- *)

let count_bytes t n =
  Mutex.protect t.mutex (fun () -> Pf_obs.Counters.add t.c_bytes n)

let prepare t program ~setup ~fast_forward ~window =
  let pd, fp, fresh_machine = fingerprint t program ~setup in
  let digest = digest_of ~program_digest:pd ~fingerprint:fp ~fast_forward ~window in
  match Cache_store.find t.store ~digest ~decode:(decode program) with
  | Some trace ->
      count_bytes t
        (header_bytes + (Tracer.length trace * record_bytes) + footer_bytes);
      trace
  | None ->
      let machine =
        match fresh_machine with
        | Some m -> m
        | None ->
            let m = Pf_isa.Machine.create program in
            setup m;
            m
      in
      let trace = Tracer.capture machine ~fast_forward ~window in
      if Tracer.length trace > 0 then begin
        Depinfo.compute trace;
        let payload = encode trace in
        Cache_store.store t.store ~digest payload;
        count_bytes t (String.length payload)
      end;
      trace
