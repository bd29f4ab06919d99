type input = {
  config : Config.t;
  trace : Pf_trace.Tracer.t;
  flat : Pf_trace.Flat_trace.t;
  occurrence : Pf_trace.Occurrence.t;
  hints : Pf_core.Hint_cache.t;
  use_rec_pred : bool;
  use_dmt : bool;
  use_doacross : bool;
  safety : Pf_core.Safety_filter.t option;
  sink : Pf_obs.Sink.t;
  counters : Pf_obs.Counters.t option;
}

module Sink = Pf_obs.Sink
module Counters = Pf_obs.Counters

(* Bumped whenever a change could alter timing or metrics; the sweep
   cache keys run records on it (docs/REPORT_SCHEMA.md). The golden
   suite pins the actual numbers — this tag only has to change when
   they legitimately may. *)
let timing_version = "engine-3"

(* per-instruction pipeline states *)
let s_none = 0
let s_fetched = 1
let s_divert = 2
let s_sched = 3
let s_issued = 4
let s_retired = 5

(* instruction kind codes (precomputed in the shared flat trace) *)
let k_load = Pf_trace.Flat_trace.k_load
let k_store = Pf_trace.Flat_trace.k_store
let k_branch = Pf_trace.Flat_trace.k_branch
let k_jump = Pf_trace.Flat_trace.k_jump
let k_call = Pf_trace.Flat_trace.k_call
let k_return = Pf_trace.Flat_trace.k_return
let k_ind_jump = Pf_trace.Flat_trace.k_ind_jump
let k_ind_call = Pf_trace.Flat_trace.k_ind_call

(* Cycle wheel used by event skipping: one slot per cycle modulo the
   wheel size, stamped with the exact completion cycle at issue time.
   A slot is "armed" for cycle [c] iff it holds exactly [c]; stale
   stamps from completions that have already passed never match a
   probed future cycle, so the wheel needs no per-cycle clearing. The
   size must exceed the largest issue latency (an L2-missing load is
   ~112 cycles); a latency that does not fit disables skipping for the
   rest of the run instead of corrupting it. *)
let wheel_bits = 9
let wheel_size = 1 lsl wheel_bits
let wheel_mask = wheel_size - 1

type task = {
  id : int;
  slot : int; (* task context index, 0 .. max_tasks-1; stable for life *)
  start_idx : int;
  mutable end_idx : int;
  mutable fetch_ptr : int;
  mutable dispatch_ptr : int;
  mutable stall_until : int;
  mutable stall_reason : int; (* Sink reason code while stall_until > now *)
  mutable blocked_branch : int; (* -1 = none *)
  mutable last_line : int;
  origin : int; (* at_pc of the spawn point that created this task, or -1 *)
  level : int; (* Safety_filter speculation level code; 2 = optimistic *)
  mutable inflight : int;
  mutable rob_used : int; (* dispatched-but-not-retired instructions *)
  mutable obs_ptr : int; (* cycle accounting: first maybe-incomplete index *)
  mutable history : int; (* per-task gshare global-history register *)
  history0 : int;         (* snapshot at spawn, restored on squash *)
  mutable ras : Pf_predict.Ras.t;
  ras0 : Pf_predict.Ras.t; (* snapshot at spawn, restored on squash *)
}

(* Per-domain pool for the window-sized pipeline-state arrays. A sweep
   runs hundreds of simulates over same-sized windows, and allocating
   fresh 60k-element arrays per call — straight to the major heap, they
   are far beyond the minor-allocation cutoff — cost a quarter of bench
   wall time in caml_make_vect plus the GC work to reclaim them.
   Checkout empties the pool slot, so a nested or concurrent simulate on
   the same domain simply misses and allocates; a scratch lost to an
   escaping exception is re-made on the next call. Only immediate-value
   (int/byte) arrays live here: refilling them carries no write barrier,
   and none of them escapes [simulate] (sinks receive scalars). *)
module Scratch = struct
  type t = {
    n : int;
    state : Bytes.t;           (* '\000' *)
    synced : Bytes.t;          (* '\000' *)
    fetch_c : int array;       (* 0 *)
    complete_c : int array;    (* max_int *)
    tstart : int array;        (* 0 *)
    ready_at : int array;      (* 0 *)
    drain_blocker : int array; (* -1 *)
    owner_slot : int array;    (* 0 = the initial task's slot *)
    src1 : int array;          (* blitted from the flat trace before use *)
    src2 : int array;
    (* spawn-statistic arrays are sized by the static code footprint
       (max pc / bytes-per-instr), not the window, so they carry their
       own length and grow on demand *)
    mutable sp_len : int;
    mutable sp_spawned : int array;
    mutable sp_work : int array;
    mutable sp_work_early : int array;
    mutable sp_squashed : int array;
    mutable sp_suppressed : int array;
  }

  let make n =
    { n;
      state = Bytes.make n '\000';
      synced = Bytes.make n '\000';
      fetch_c = Array.make n 0;
      complete_c = Array.make n max_int;
      tstart = Array.make n 0;
      ready_at = Array.make n 0;
      drain_blocker = Array.make n (-1);
      owner_slot = Array.make n 0;
      src1 = Array.make n 0;
      src2 = Array.make n 0;
      sp_len = 0;
      sp_spawned = [||];
      sp_work = [||];
      sp_work_early = [||];
      sp_squashed = [||];
      sp_suppressed = [||] }

  (* make the five spawn-stat arrays hold at least [n_sp] zeroed slots *)
  let ensure_sp s n_sp =
    if s.sp_len < n_sp then begin
      s.sp_len <- n_sp;
      s.sp_spawned <- Array.make n_sp 0;
      s.sp_work <- Array.make n_sp 0;
      s.sp_work_early <- Array.make n_sp 0;
      s.sp_squashed <- Array.make n_sp 0;
      s.sp_suppressed <- Array.make n_sp 0
    end
    else begin
      Array.fill s.sp_spawned 0 n_sp 0;
      Array.fill s.sp_work 0 n_sp 0;
      Array.fill s.sp_work_early 0 n_sp 0;
      Array.fill s.sp_squashed 0 n_sp 0;
      Array.fill s.sp_suppressed 0 n_sp 0
    end

  let reset s =
    Bytes.fill s.state 0 s.n '\000';
    Bytes.fill s.synced 0 s.n '\000';
    Array.fill s.fetch_c 0 s.n 0;
    Array.fill s.complete_c 0 s.n max_int;
    Array.fill s.tstart 0 s.n 0;
    Array.fill s.ready_at 0 s.n 0;
    Array.fill s.drain_blocker 0 s.n (-1);
    Array.fill s.owner_slot 0 s.n 0

  (* The pool holds up to [max_pooled] scratches so a domain that
     alternates window sizes (a window-sensitivity sweep, a daemon
     prewarmed for several sizes) keeps one per size instead of
     re-allocating on every switch; the cap bounds a domain's idle
     footprint after an unusually varied run. *)
  let max_pooled = 16

  let pool : t list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let checkout n =
    let r = Domain.DLS.get pool in
    let rec take acc = function
      | [] -> make n (* fresh arrays are born initialised *)
      | s :: rest when s.n = n ->
          r := List.rev_append acc rest;
          reset s;
          s
      | s :: rest -> take (s :: acc) rest
    in
    take [] !r

  let checkin s =
    let r = Domain.DLS.get pool in
    if List.length !r < max_pooled then r := s :: !r
end

let prewarm_scratch ~window =
  if window <= 0 then invalid_arg "Engine.prewarm_scratch: window <= 0";
  Scratch.checkin (Scratch.checkout window)

let simulate input =
  let cfg = input.config in
  (* Observability. [observe] is computed once; every hook site below is
     guarded by it, so with the null sink a simulation pays one boolean
     test per site and never enters the per-slot accounting pass. The
     sink must never feed back into timing — test_golden.ml holds the
     metrics byte-identical with sinks attached and detached. *)
  let sink = input.sink in
  let observe = not (Sink.is_null sink) in
  let reg =
    match input.counters with
    | Some r -> r
    | None -> Counters.create ()
  in
  let cnt = Counters.make reg in
  let cinc = Counters.incr in
  let cv = Counters.value in
  (* Event counts live in the named-counter registry (a counter handle
     is one mutable cell — bumping it costs the same as a ref), so tools
     can enumerate everything a run counted; Metrics is assembled from
     the registry at the end. *)
  let m_branch_mp = cnt "branch_mispredicts" in
  let m_ind_mp = cnt "indirect_mispredicts" in
  let m_ret_mp = cnt "return_mispredicts" in
  let m_squashes = cnt "squashes" in
  let m_squashed = cnt "squashed_instrs" in
  let m_diverted = cnt "diverted" in
  let m_tasks = cnt "tasks_spawned" in
  let m_spawn_suppressed = cnt "spawn_suppressed" in
  let m_divert_released = cnt "divert_released" in
  let m_load_syncs = cnt "load_syncs" in
  let m_mem_violations = cnt "mem_violations" in
  let m_mem_syncs = cnt "mem_syncs" in
  let m_level_bypass = cnt "level_bypass" in
  let m_level_conservative = cnt "level_conservative" in
  let m_level_optimistic = cnt "level_optimistic" in
  let m_stall_frontend = cnt "stall_frontend" in
  let m_stall_divert = cnt "stall_divert" in
  let m_stall_sched = cnt "stall_sched" in
  let m_stall_exec = cnt "stall_exec" in
  let dyns = input.trace.Pf_trace.Tracer.dyns in
  (* The flat trace is shared and immutable: every array below is read
     only, so concurrent simulations of the same window (one per policy,
     across worker domains) alias one copy. See docs/ENGINE.md. *)
  let flat = input.flat in
  let n = flat.Pf_trace.Flat_trace.n in
  if n = 0 then invalid_arg "Engine: empty trace";
  if n <> Array.length dyns then
    invalid_arg "Engine: flat trace does not match the captured window";
  let pc = flat.Pf_trace.Flat_trace.pc in
  let next_pc = flat.Pf_trace.Flat_trace.next_pc in
  let taken = flat.Pf_trace.Flat_trace.taken in
  let addr = flat.Pf_trace.Flat_trace.addr in
  let kind = flat.Pf_trace.Flat_trace.kind in
  let lat = flat.Pf_trace.Flat_trace.lat in
  let src1_sp = flat.Pf_trace.Flat_trace.src1_sp in
  let src2_sp = flat.Pf_trace.Flat_trace.src2_sp in
  let memsrc = flat.Pf_trace.Flat_trace.memsrc in
  let backward = flat.Pf_trace.Flat_trace.backward in
  (* Per-run effective register sources. The spawn hint cache carries
     register-dependence information (Section 3.1); the stack pointer at
     a control-equivalent spawn target equals its value at the spawn
     point (call depth balances along every path), so a cross-task sp
     dependence is satisfied at spawn rather than through the divert
     machinery. The fetch stage patches these copies accordingly — they
     are the one part of the flattened window that is per-run mutable.
     The only writes (fetch's sp-hint patching) require [sp_hint] and a
     cross-task producer, which needs a second task; a single-task run
     can therefore alias the shared flat trace instead of copying it. *)
  let eff_mutable = cfg.Config.sp_hint && cfg.Config.max_tasks > 1 in
  let scratch = Scratch.checkout n in
  let eff_src1 =
    if eff_mutable then begin
      Array.blit flat.Pf_trace.Flat_trace.src1 0 scratch.Scratch.src1 0 n;
      scratch.Scratch.src1
    end
    else flat.Pf_trace.Flat_trace.src1
  in
  let eff_src2 =
    if eff_mutable then begin
      Array.blit flat.Pf_trace.Flat_trace.src2 0 scratch.Scratch.src2 0 n;
      scratch.Scratch.src2
    end
    else flat.Pf_trace.Flat_trace.src2
  in
  (* ---- pipeline state (window-sized arrays come from the pool) ---- *)
  let state = scratch.Scratch.state in
  let get_state i = Char.code (Bytes.unsafe_get state i) in
  let set_state i s = Bytes.unsafe_set state i (Char.unsafe_chr s) in
  let fetch_c = scratch.Scratch.fetch_c in
  let complete_c = scratch.Scratch.complete_c in
  let synced = scratch.Scratch.synced in
  let tstart = scratch.Scratch.tstart in
  let gshare = Pf_predict.Gshare.create () in
  let indirect = Pf_predict.Indirect.create () in
  let store_sets =
    Pf_predict.Store_sets.create
      ~sync_threshold:cfg.Config.mem_sync_threshold ()
  in
  let recpred = Pf_predict.Reconvergence.create () in
  (* The memory-dependence violation tracker (docs/ENGINE.md): a
     per-task load CAM, probed by retiring stores. Off by default —
     [use_tracker] guards every touch point, so engine-3 timing is
     bit-exact with the tracker disabled. *)
  let use_tracker = cfg.Config.mem_tracker in
  (* DOACROSS near-carry synchronisation (docs/ENGINE.md): when on, a
     cross-task load whose producing store lies within
     [doacross_sync_distance] immediately-preceding live tasks is
     force-synchronised at dispatch; far carries speculate under the
     tracker. Off for every other policy, so timing is untouched. *)
  let use_doacross = input.use_doacross in
  let tracker =
    if use_tracker then
      Mem_tracker.create ~max_tasks:cfg.Config.max_tasks
        ~entries:cfg.Config.tracker_entries
    else Mem_tracker.create ~max_tasks:1 ~entries:1
  in
  let hier = Pf_cache.Hierarchy.create () in
  let line_mask = Config.l1i_line_mask in
  (* tasks, in program order *)
  (* Slot allocation: a task occupies one of max_tasks contexts for its
     whole life. Slots give the sinks a stable, dense identity (a CPI
     row, a trace track) that survives task creation and death. *)
  let slot_task : task option array = Array.make cfg.Config.max_tasks None in
  let free_slot () =
    let rec go s =
      if s >= Array.length slot_task then
        failwith "Engine: no free task slot (live-count out of sync)"
      else match slot_task.(s) with None -> s | Some _ -> go (s + 1)
    in
    go 0
  in
  let make_task id slot start_idx end_idx start_cycle stall_reason origin
      level history ras =
    let t =
      { id; slot; start_idx; end_idx; fetch_ptr = start_idx;
        dispatch_ptr = start_idx; stall_until = start_cycle; stall_reason;
        blocked_branch = -1; last_line = -1; origin; level; inflight = 0;
        rob_used = 0; obs_ptr = start_idx; history; history0 = history;
        ras = Pf_predict.Ras.copy ras; ras0 = Pf_predict.Ras.copy ras }
    in
    slot_task.(slot) <- Some t;
    t
  in
  (* Dynamic spawn-profitability feedback (Section 3.1: "the Spawn Unit
     may decide to spawn the new task, depending on dynamic feedback
     about which tasks are profitable"), kept in flat arrays indexed by
     static spawn-point id. Every candidate's at_pc is the PC of the
     instruction being fetched (the hint cache is keyed by at_pc and the
     dynamic policies construct candidates at pc.(i)), so ids fit in
     [0, max window PC / bytes_per_instr]. *)
  let bpi = Pf_isa.Instr.bytes_per_instr in
  let n_sp =
    let max_pc = ref 0 in
    for i = 0 to n - 1 do
      if pc.(i) > !max_pc then max_pc := pc.(i)
    done;
    (!max_pc / bpi) + 1
  in
  let sp_id at_pc = at_pc / bpi in
  Scratch.ensure_sp scratch n_sp;
  let sp_spawned = scratch.Scratch.sp_spawned in
  let sp_work = scratch.Scratch.sp_work in (* instrs its tasks fetched young *)
  let sp_work_early = scratch.Scratch.sp_work_early in (* done before oldest *)
  let sp_squashed = scratch.Scratch.sp_squashed in (* tasks hit by violation *)
  let sp_suppressed = scratch.Scratch.sp_suppressed in
  let decay sid =
    (* keep the feedback adaptive: early warm-up squashes (before the
       store sets learn) must not poison a spawn point forever *)
    if sp_work.(sid) >= 2048 || sp_spawned.(sid) >= 64 then begin
      sp_work.(sid) <- sp_work.(sid) / 2;
      sp_work_early.(sid) <- sp_work_early.(sid) / 2;
      sp_spawned.(sid) <- sp_spawned.(sid) / 2;
      sp_squashed.(sid) <- sp_squashed.(sid) / 2
    end
  in
  (* A spawn point is profitable when the tasks it creates actually run
     in parallel with their elders: a healthy task has completed a good
     fraction of its fetched work by the time it becomes the oldest.
     Tasks that merely trail a serial dependence chain complete almost
     nothing early and only cost fetch bandwidth and contexts. Points
     also compete: with only 8 task contexts, a point whose tasks do far
     less parallel work than the best-known point is not worth a
     context. *)
  let best_frac = ref 0. in
  let profitable at_pc =
    let sid = sp_id at_pc in
    decay sid;
    if not cfg.Config.feedback then true
    else if sp_spawned.(sid) < 4 then true
    else
      let bad =
        (sp_work.(sid) >= 64
        &&
        let f =
          float_of_int sp_work_early.(sid) /. float_of_int sp_work.(sid)
        in
        if f > !best_frac then best_frac := f;
        f *. 3. < 1. || f *. 2. < !best_frac)
        || sp_squashed.(sid) * 4 > sp_spawned.(sid)
      in
      if not bad then true
      else begin
        (* periodic probe so a point can rehabilitate *)
        sp_suppressed.(sid) <- sp_suppressed.(sid) + 1;
        let probe = sp_suppressed.(sid) mod 16 = 0 in
        if not probe then cinc m_spawn_suppressed;
        probe
      end
  in
  let shared_hist = ref Pf_predict.Gshare.initial_history in
  let initial_ras = Pf_predict.Ras.create ~depth:cfg.Config.ras_depth () in
  let initial_task =
    make_task 0 0 0 n 0 Sink.r_base (-1) 2 Pf_predict.Gshare.initial_history
      initial_ras
  in
  (* Live tasks, oldest first, in a preallocated ring: the k-th oldest
     lives at ring.((head + k) mod max_tasks). max_tasks is the hard
     live-task cap, so the ring can never overflow; all walks that used
     to traverse an OCaml list allocate nothing. Dead entries keep stale
     task pointers (never read — [live] bounds every walk). *)
  let cap = cfg.Config.max_tasks in
  let ring = Array.make cap initial_task in
  let head = ref 0 in
  let live = ref 1 in
  let ring_at k =
    let p = !head + k in
    ring.(if p >= cap then p - cap else p)
  in
  let ring_set k t =
    let p = !head + k in
    ring.(if p >= cap then p - cap else p) <- t
  in
  (* owning task of every fetched instruction, maintained at fetch; a
     refetch after a squash rewrites the same entry, so a lookup is O(1)
     instead of a scan of the live tasks. Stored as the owning slot id
     (an immediate — the fetch-path store needs no write barrier, and
     the array can live in the scratch pool); every read happens while
     the owner is live, so its slot still resolves through
     [slot_task]. *)
  let owner_slot = scratch.Scratch.owner_slot in
  let owner_task i =
    match slot_task.(owner_slot.(i)) with
    | Some t -> t
    | None -> failwith "Engine: owner slot has no live task"
  in
  let next_task_id = ref 1 in
  let rob_count = ref 0 in
  let sched_count = ref 0 in
  let divert_count = ref 0 in
  (* ready queues: index-sorted scheduler (issue priority = program
     order, kept sorted by construction instead of List.sort per cycle)
     and FIFO divert queue (dependence order) *)
  let scheduler = Readyq.create ~capacity:cfg.Config.scheduler_entries () in
  let divertq = Readyq.create ~capacity:cfg.Config.divert_entries () in
  let retire_ptr = ref 0 in
  let now = ref 0 in
  (* [m_max_live] is a high-water mark, not monotonic, so it is not a
     registry counter *)
  let m_max_live = ref 1 in
  (* Spawn counts per category, in flat arrays. Metrics.spawns is
     assembled by replaying the counts into a Hashtbl in first-seen
     order (see the epilogue): Hashtbl.replace keeps an existing key in
     place, so the fold order of the replayed table — and therefore the
     golden-locked Metrics.spawns list order — is exactly what the old
     per-spawn Hashtbl updates produced. *)
  let cat_code = function
    | Pf_core.Spawn_point.Loop_iter -> 0
    | Pf_core.Spawn_point.Loop_ft -> 1
    | Pf_core.Spawn_point.Proc_ft -> 2
    | Pf_core.Spawn_point.Hammock -> 3
    | Pf_core.Spawn_point.Other -> 4
  in
  let cat_of_code = function
    | 0 -> Pf_core.Spawn_point.Loop_iter
    | 1 -> Pf_core.Spawn_point.Loop_ft
    | 2 -> Pf_core.Spawn_point.Proc_ft
    | 3 -> Pf_core.Spawn_point.Hammock
    | _ -> Pf_core.Spawn_point.Other
  in
  let cat_count = Array.make 5 0 in
  let cat_seen = Array.make 5 0 in
  let n_cat_seen = ref 0 in
  let bump_spawn cat =
    let c = cat_code cat in
    if cat_count.(c) = 0 then begin
      cat_seen.(!n_cat_seen) <- c;
      incr n_cat_seen
    end;
    cat_count.(c) <- cat_count.(c) + 1
  in
  (* The scheduler/divert sweeps below run every cycle over every parked
     entry, so their array reads use unsafe accessors. The indices are
     safe by construction: sweeps hand out queue entries, which are
     window indices, and producer fields (src1/src2/memsrc) of in-window
     instructions are themselves window indices or -1 — and every -1 is
     tested before the access. *)
  let completed i =
    let s = get_state i in
    s = s_retired || (s = s_issued && Array.unsafe_get complete_c i <= !now)
  in
  let cross i p = p >= 0 && p < Array.unsafe_get tstart i in
  (* ---- event skipping ----
     [progress] is set by every stage action that mutates pipeline,
     task, predictor or cache state. When a whole cycle passes without
     it, nothing in the machine can act until a time-based gate opens,
     and the loop jumps [now] straight there (see next_event below). *)
  let progress = ref false in
  let skip_live = ref (not cfg.Config.no_event_skip) in
  let wheel = Array.make wheel_size (-1) in
  let note_completion c =
    if c - !now < wheel_size then Array.unsafe_set wheel (c land wheel_mask) c
    else skip_live := false
  in

  (* ---- squash: reset the violating task and everything younger ----
     Prunes the divert queue; the scheduler is swept or re-filtered by
     the caller. [reason] charges the recovery stall: issue-time
     dependence violations keep [r_squash_recovery], tracker-detected
     violations at retire are charged to [r_mem_violation]. *)
  let keep_divert i = get_state i = s_divert in
  let squash_from ~reason victim_task =
    cinc m_squashes;
    progress := true;
    let squashed_before = cv m_squashed in
    let pos = ref 0 in
    while ring_at !pos != victim_task do incr pos done;
    let tasks_hit = !live - !pos in
    for k = !pos to !live - 1 do
      let t = ring_at k in
      let lo = max t.start_idx !retire_ptr in
      for i = lo to t.fetch_ptr - 1 do
        let s = get_state i in
        if s <> s_none then begin
          if s >= s_divert && s <> s_retired then decr rob_count;
          if s = s_divert then decr divert_count;
          if s = s_sched then decr sched_count;
          if s <> s_retired then begin
            set_state i s_none;
            complete_c.(i) <- max_int;
            cinc m_squashed
          end
        end
      done;
      t.fetch_ptr <- lo;
      t.dispatch_ptr <- lo;
      if t.obs_ptr > lo then t.obs_ptr <- lo;
      t.stall_until <- !now + cfg.Config.squash_penalty;
      t.stall_reason <- reason;
      t.blocked_branch <- -1;
      t.last_line <- -1;
      t.inflight <- 0;
      t.rob_used <- 0;
      t.history <- t.history0;
      t.ras <- Pf_predict.Ras.copy t.ras0;
      (* the squashed task's speculative loads are discarded with it *)
      if use_tracker then Mem_tracker.reset_slot tracker t.slot;
      if t.origin >= 0 then begin
        let sid = sp_id t.origin in
        sp_squashed.(sid) <- sp_squashed.(sid) + 1
      end
    done;
    if observe then
      sink.Sink.on_squash ~cycle:!now ~slot:victim_task.slot ~tasks:tasks_hit
        ~instrs:(cv m_squashed - squashed_before);
    Readyq.filter divertq keep_divert
  in

  (* ---- retire ---- *)
  (* when a task is promoted to oldest, grade how much of its fetched
     work it already completed in parallel with its elders *)
  let grade t =
    if t.origin >= 0 then begin
      let sid = sp_id t.origin in
      let fetched = t.fetch_ptr - t.start_idx in
      if fetched >= 16 then begin
        let early = ref 0 in
        for i = t.start_idx to t.fetch_ptr - 1 do
          if completed i then incr early
        done;
        sp_work.(sid) <- sp_work.(sid) + fetched;
        sp_work_early.(sid) <- sp_work_early.(sid) + !early
      end
    end
  in
  let retire () =
    let budget = ref cfg.Config.retire_width in
    let continue_ = ref true in
    while !continue_ && !budget > 0 && !retire_ptr < n do
      let i = !retire_ptr in
      if completed i then begin
        set_state i s_retired;
        decr rob_count;
        decr budget;
        progress := true;
        if input.use_rec_pred then
          Pf_predict.Reconvergence.retire recpred ~pc:pc.(i)
            ~instr:dyns.(i).Pf_trace.Dyn.instr;
        let t = owner_task i in
        t.inflight <- t.inflight - 1;
        t.rob_used <- t.rob_used - 1;
        if observe then sink.Sink.on_retire ~cycle:!now ~slot:t.slot ~index:i;
        incr retire_ptr;
        (* tracker probe: the retiring store commits its write; a hit in
           a younger task's load CAM means that task consumed the
           location before the write committed — a cross-task
           read-before-write violation. Squash the oldest offender (and
           with it everything younger), train the store set with the
           recorded load PC so the offender synchronises from now on,
           and charge the recovery to the mem_violation reason. *)
        if
          use_tracker
          && Array.unsafe_get kind i = k_store
          && Array.unsafe_get addr i >= 0
          && !live > 1
        then begin
          let a = Array.unsafe_get addr i in
          let hit = ref false in
          let k = ref 1 in
          while (not !hit) && !k < !live do
            let ty = ring_at !k in
            let lpc = Mem_tracker.probe tracker ~slot:ty.slot ~addr:a in
            if lpc >= 0 then begin
              hit := true;
              cinc m_mem_violations;
              Pf_predict.Store_sets.train_violation store_sets ~load_pc:lpc
                ~store_pc:pc.(i);
              squash_from ~reason:Sink.r_mem_violation ty
              (* stale scheduler entries left by the squash drop out of
                 the next issue sweep (their state is no longer
                 s_sched); the divert queue was pruned by squash_from *)
            end
            else incr k
          done
        end
      end
      else continue_ := false
    done;
    (* free finished tasks (oldest first; tasks retire in order) *)
    let dropping = ref true in
    while !dropping && !live > 0 do
      let t = ring_at 0 in
      if t.fetch_ptr >= t.end_idx && !retire_ptr >= t.end_idx then begin
        head := (let p = !head + 1 in if p >= cap then 0 else p);
        decr live;
        slot_task.(t.slot) <- None;
        if use_tracker then Mem_tracker.reset_slot tracker t.slot;
        progress := true;
        if observe then
          sink.Sink.on_task_end ~cycle:!now ~slot:t.slot ~task:t.id;
        if !live > 0 then grade (ring_at 0)
      end
      else dropping := false
    done
  in

  (* ---- issue ---- *)
  let reg_ready p = p < 0 || completed p in
  let issue_budget = ref 0 in
  let squashed_during_sweep = ref false in
  (* start_idx of the oldest live task during this issue sweep: loads
     it owns are non-speculative and stay out of the tracker CAM *)
  let issue_oldest_start = ref max_int in
  (* Most scheduler entries visited by a sweep are waiting on producer
     latency.  [ready_at.(i)] caches a lower bound on the first cycle
     entry [i] could act (issue or raise a violation), so later sweeps
     dismiss it with one compare instead of re-reading all its producer
     states.  The bound is sound because producers complete exactly at
     their recorded [complete_c] (set once at issue, only reset by a
     squash that also evicts every consumer), and a producer that has
     not issued yet cannot complete before next cycle — issue happens
     once per cycle and every latency is at least 1.  Entries are reset
     to 0 whenever they (re-)enter the scheduler. *)
  let ready_at = scratch.Scratch.ready_at in
  (* earliest cycle pending producer [p] can be complete: its recorded
     completion once issued, next cycle otherwise (hoisted so the
     not-ready path of [issue_step] stays allocation-free) *)
  let pend p =
    if p < 0 || completed p then 0
    else if get_state p >= s_issued then Array.unsafe_get complete_c p
    else !now + 1
  in
  let issue_step i =
    if get_state i <> s_sched then false (* squashed, drop *)
    else if !now < Array.unsafe_get ready_at i then true
    else if !issue_budget = 0 then true
    else begin
      let m = Array.unsafe_get memsrc i in
      let mem_ready, violation =
        if Array.unsafe_get kind i <> k_load || m < 0 then (true, false)
        else if not (cross i m) then (completed m, false)
        else if Bytes.unsafe_get synced i = '\001' then (completed m, false)
        else if completed m then (true, false)
        else (true, true) (* speculative load beat its producer *)
      in
      if
        reg_ready (Array.unsafe_get eff_src1 i)
        && reg_ready (Array.unsafe_get eff_src2 i)
        && mem_ready
      then begin
        if violation then begin
          (* dependence violation: train and squash from this task *)
          Pf_predict.Store_sets.train_violation store_sets ~load_pc:pc.(i)
            ~store_pc:pc.(m);
          squash_from ~reason:Sink.r_squash_recovery (owner_task i);
          squashed_during_sweep := true;
          (* i itself is squashed with its task *)
          get_state i = s_sched
        end
        else begin
          set_state i s_issued;
          decr sched_count;
          decr issue_budget;
          progress := true;
          let k = Array.unsafe_get kind i in
          let latency =
            if k = k_load then
              Pf_cache.Hierarchy.data_latency hier (Array.unsafe_get addr i)
            else begin
              if k = k_store then
                ignore
                  (Pf_cache.Hierarchy.data_latency hier
                     (Array.unsafe_get addr i));
              Array.unsafe_get lat i
            end
          in
          let c = !now + latency in
          Array.unsafe_set complete_c i c;
          note_completion c;
          (* tracker: remember the speculative cross-task read so a
             later-retiring older store can catch it. Only unsynced
             loads of optimistic-level tasks that are not the oldest
             speculate on memory; a producer that already retired
             committed its write before this read. *)
          if
            use_tracker && k = k_load
            && Bytes.unsafe_get synced i <> '\001'
            && cross i m
            && get_state m <> s_retired
            && Array.unsafe_get addr i >= 0
            && Array.unsafe_get tstart i <> !issue_oldest_start
          then begin
            let ot = owner_task i in
            if ot.level = 2 then
              Mem_tracker.record_load tracker
                ~slot:(Array.unsafe_get owner_slot i)
                ~addr:(Array.unsafe_get addr i) ~pc:pc.(i)
          end;
          if observe then
            sink.Sink.on_issue ~cycle:!now ~slot:owner_slot.(i) ~index:i
              ~latency;
          (* no per-access decay: as in classic store sets, learned
             pairs stay synchronised (decay would oscillate between
             speculating and re-squashing on steady conflicts) *)
          false
        end
      end
      else begin
        (* not ready: record when the unmet gates could open next.  A
           violation needs only the register gates (mem_ready is true on
           that path), so caching the register bound never delays it. *)
        let b1 = pend (Array.unsafe_get eff_src1 i) in
        let b2 = pend (Array.unsafe_get eff_src2 i) in
        let bm = if mem_ready then 0 else pend m in
        let b = !now + 1 in
        let b = if b1 > b then b1 else b in
        let b = if b2 > b then b2 else b in
        let b = if bm > b then bm else b in
        Array.unsafe_set ready_at i b;
        true
      end
    end
  in
  let keep_sched i = get_state i = s_sched in
  let issue () =
    (* the scheduler queue is ascending by construction, so this sweep
       visits candidates oldest-first without sorting *)
    issue_budget := cfg.Config.fus;
    squashed_during_sweep := false;
    issue_oldest_start :=
      (if !live > 0 then (ring_at 0).start_idx else max_int);
    Readyq.sweep scheduler issue_step;
    (* a squash invalidates entries the sweep already decided to keep *)
    if !squashed_during_sweep then Readyq.filter scheduler keep_sched
  in

  (* Younger tasks may not exhaust the shared structures — the oldest
     task must always be able to dispatch, or nothing ever retires (the
     paper's PolyFlow likewise cannot reclaim resources from younger
     threads, Section 6). With shares on, younger tasks together hold at
     most 3/4 of the ROB and at most 1/4 each, so the oldest always keeps
     a window of a quarter of the machine: without shares a single
     far-ahead task parks hundreds of completed-but-unretirable entries
     and strangles the critical task, while shares that are too small
     leave a task reaching oldest age with its region undispatched,
     exposing its load misses. *)
  let young_rob_limit =
    if cfg.Config.rob_shares then cfg.Config.rob_entries * 3 / 4
    else cfg.Config.rob_entries - (2 * cfg.Config.width)
  in
  let per_task_rob_cap =
    if cfg.Config.rob_shares then cfg.Config.rob_entries / 4
    else cfg.Config.rob_entries
  in
  let young_sched_limit = cfg.Config.scheduler_entries - cfg.Config.width in

  (* ---- divert queue drain ---- *)
  (* hold diverted work until its cross-task producers have completed
     and none of its producers is still diverted: the divert queue's
     whole purpose is to keep earlier-task-dependent chains out of the
     scheduler (Section 3.1), otherwise young tasks squat in the shared
     scheduler and strangle the oldest task *)
  (* a cross-task consumer is released once its producer has begun
     executing — it reaches the scheduler just in time for wakeup;
     chains whose head is still parked stay in the FIFO *)
  let ok_producer i p =
    p < 0
    || (((not cfg.Config.divert_chains) || get_state p <> s_divert)
       && ((not (cross i p)) || get_state p >= s_issued))
  in
  let drain_budget = ref 0 in
  let drain_oldest_start = ref max_int in
  (* The divert FIFO is dominated by chains parked behind one producer.
     [drain_blocker.(i)] remembers the producer whose gate kept entry
     [i] parked on its last full evaluation; while that gate still
     blocks (it is re-read from live state on every visit), the sweep
     keeps [i] after two loads instead of re-testing budget, scheduler
     share and all three producer gates.  A blocked gate is a false
     conjunct of the full release condition, so the short-circuit never
     changes a decision; gates only open monotonically between squashes,
     and a squash evicts the consumer along with its producer.  Reset on
     (re-)entry to the queue. *)
  let drain_blocker = scratch.Scratch.drain_blocker in
  let blocked_gate i p =
    (cfg.Config.divert_chains && get_state p = s_divert)
    || (cross i p && get_state p < s_issued)
  in
  let drain_step i =
    if get_state i <> s_divert then false
    else if
      (let b = Array.unsafe_get drain_blocker i in
       b >= 0 && blocked_gate i b)
    then true
    else begin
      (* the oldest task's entries may use the reserved scheduler band,
         otherwise its drain could deadlock behind younger consumers *)
      let sched_limit =
        if Array.unsafe_get tstart i = !drain_oldest_start then
          cfg.Config.scheduler_entries
        else young_sched_limit
      in
      let m = Array.unsafe_get memsrc i in
      let mem_ok =
        Array.unsafe_get kind i <> k_load
        || m < 0
        || Bytes.unsafe_get synced i <> '\001'
        || ok_producer i m
      in
      if
        !drain_budget > 0
        && !sched_count < sched_limit
        && ok_producer i (Array.unsafe_get eff_src1 i)
        && ok_producer i (Array.unsafe_get eff_src2 i)
        && mem_ok
      then begin
        set_state i s_sched;
        Array.unsafe_set ready_at i 0;
        Readyq.add_sorted scheduler i;
        incr sched_count;
        decr divert_count;
        decr drain_budget;
        progress := true;
        cinc m_divert_released;
        if observe then
          sink.Sink.on_divert_release ~cycle:!now ~slot:owner_slot.(i) ~index:i;
        false
      end
      else begin
        (* only producer gates persist across cycles; budget and share
           pressure clear on their own, so cache a blocker only when a
           gate really was the reason *)
        if !drain_budget > 0 && !sched_count < sched_limit then begin
          let r1 = Array.unsafe_get eff_src1 i
          and r2 = Array.unsafe_get eff_src2 i in
          Array.unsafe_set drain_blocker i
            (if r1 >= 0 && blocked_gate i r1 then r1
             else if r2 >= 0 && blocked_gate i r2 then r2
             else m)
        end;
        true
      end
    end
  in
  let drain_divert () =
    (* FIFO (= dependence) order, so a ready chain drains up to [width]
       members in one cycle instead of rippling one per cycle *)
    drain_budget := cfg.Config.width;
    drain_oldest_start := (if !live > 0 then (ring_at 0).start_idx else max_int);
    Readyq.sweep divertq drain_step
  in

  (* ---- dispatch ---- *)
  (* an instruction diverts when a producer is in an earlier task and
     not yet completed, or is itself still parked in the divert queue
     (dependent chains follow their head into the FIFO) *)
  let blocked_producer i p =
    p >= 0
    && ((cfg.Config.divert_chains && get_state p = s_divert)
       || (cross i p && get_state p < s_issued))
  in
  let dispatch () =
    let budget = ref cfg.Config.width in
    for k = 0 to !live - 1 do
      let t = ring_at k in
      let is_oldest = k = 0 in
      let rob_limit =
        if is_oldest then cfg.Config.rob_entries else young_rob_limit
      in
      let sched_limit =
        if is_oldest then cfg.Config.scheduler_entries else young_sched_limit
      in
      let continue_ = ref true in
      while !continue_ && !budget > 0 && t.dispatch_ptr < t.fetch_ptr do
        let i = t.dispatch_ptr in
        if get_state i <> s_fetched then continue_ := false
        else if fetch_c.(i) + cfg.Config.frontend_depth > !now then
          continue_ := false
        else if !rob_count >= rob_limit then continue_ := false
        else if (not is_oldest) && t.rob_used >= per_task_rob_cap then
          continue_ := false
        else begin
          let reg_divert =
            blocked_producer i eff_src1.(i) || blocked_producer i eff_src2.(i)
          in
          let mem_divert =
            if kind.(i) = k_load && cross i memsrc.(i) then
              (* a conservative-level task synchronises every cross-task
                 load; a doacross task force-synchronises near-iteration
                 carries (producer within the sync-distance window of
                 preceding tasks); optimistic tasks ask the store-set
                 predictor *)
              if
                t.level = 1
                || (use_doacross
                   && memsrc.(i)
                      >= (ring_at
                            (max 0 (k - cfg.Config.doacross_sync_distance)))
                           .start_idx)
                || Pf_predict.Store_sets.predict_sync store_sets
                     ~load_pc:pc.(i)
              then begin
                (* count each load the predictor chooses to synchronise
                   once, even if dispatch retries or a squash refetches *)
                if Bytes.get synced i <> '\001' then begin
                  cinc m_load_syncs;
                  if use_tracker || t.level = 1 then cinc m_mem_syncs
                end;
                Bytes.set synced i '\001';
                not (completed memsrc.(i))
              end
              else begin
                Bytes.set synced i '\000';
                false
              end
            else false
          in
          if reg_divert || mem_divert then begin
            if !divert_count < cfg.Config.divert_entries then begin
              set_state i s_divert;
              drain_blocker.(i) <- -1;
              Readyq.push divertq i;
              incr divert_count;
              incr rob_count;
              t.rob_used <- t.rob_used + 1;
              cinc m_diverted;
              t.dispatch_ptr <- i + 1;
              decr budget;
              progress := true;
              if observe then
                sink.Sink.on_dispatch ~cycle:!now ~slot:t.slot ~index:i
                  ~diverted:true
            end
            else continue_ := false (* divert queue full: stall this task *)
          end
          else if !sched_count < sched_limit then begin
            set_state i s_sched;
            ready_at.(i) <- 0;
            Readyq.add_sorted scheduler i;
            incr sched_count;
            incr rob_count;
            t.rob_used <- t.rob_used + 1;
            t.dispatch_ptr <- i + 1;
            decr budget;
            progress := true;
            if observe then
              sink.Sink.on_dispatch ~cycle:!now ~slot:t.slot ~index:i
                ~diverted:false
          end
          else continue_ := false (* scheduler full *)
        end
      done
    done
  in

  (* ---- spawning ---- *)
  let insert_after t t' =
    let pos = ref 0 in
    while ring_at !pos != t do incr pos done;
    for k = !live - 1 downto !pos + 1 do
      ring_set (k + 1) (ring_at k)
    done;
    ring_set (!pos + 1) t';
    incr live
  in
  let try_spawn t i candidates =
    (* Only the tail task spawns, one successor each (Section 3.2) —
       unless split spawning (the paper's Section 6 future work) is on,
       in which case any task may split its own region so that nested
       hammocks can all be spawned past. *)
    let is_tail = ring_at (!live - 1) == t in
    if (is_tail || cfg.Config.split_spawning) && !live < cfg.Config.max_tasks
    then
      let rec attempt = function
        | [] -> ()
        | (sp : Pf_core.Spawn_point.t) :: rest ->
            let j =
              Pf_trace.Occurrence.next_after input.occurrence
                ~pc:sp.Pf_core.Spawn_point.target_pc ~index:i
            in
            if
              j >= 0 && j < t.end_idx
              && j - i >= cfg.Config.min_task_instrs
              && j - i <= cfg.Config.max_spawn_distance
            then begin
              (* the Adaptive Flow Director: the safety filter's static
                 verdict on the target region picks the speculation
                 level of the would-be task *)
              let lvl =
                match input.safety with
                | None -> 2
                | Some f ->
                    Pf_core.Safety_filter.code f
                      ~at_pc:sp.Pf_core.Spawn_point.at_pc
              in
              if lvl = 0 then begin
                cinc m_level_bypass;
                attempt rest
              end
              else if profitable sp.Pf_core.Spawn_point.at_pc then begin
                let t' =
                  make_task !next_task_id (free_slot ()) j t.end_idx
                    (!now + cfg.Config.spawn_latency)
                    Sink.r_spawn_overhead sp.Pf_core.Spawn_point.at_pc lvl
                    t.history t.ras
                in
                (match input.safety with
                | None -> ()
                | Some _ ->
                    cinc
                      (if lvl = 1 then m_level_conservative
                       else m_level_optimistic));
                let sid = sp_id sp.Pf_core.Spawn_point.at_pc in
                sp_spawned.(sid) <- sp_spawned.(sid) + 1;
                incr next_task_id;
                t.end_idx <- j;
                insert_after t t';
                cinc m_tasks;
                progress := true;
                if !live > !m_max_live then m_max_live := !live;
                bump_spawn sp.Pf_core.Spawn_point.category;
                if observe then
                  sink.Sink.on_task_start ~cycle:!now ~slot:t'.slot ~task:t'.id
                    ~parent_slot:t.slot ~at_pc:sp.Pf_core.Spawn_point.at_pc
              end
              else attempt rest
            end
            else attempt rest
      in
      attempt candidates
  in

  let fall_through_of i =
    [ { Pf_core.Spawn_point.at_pc = pc.(i);
        target_pc = pc.(i) + Pf_isa.Instr.bytes_per_instr;
        category = Pf_core.Spawn_point.Proc_ft } ]
  in
  let spawn_candidates_at i =
    let static = Pf_core.Hint_cache.find input.hints ~pc:pc.(i) in
    let dyn =
      if input.use_rec_pred then
        match kind.(i) with
        | k when k = k_branch || k = k_ind_jump -> (
            match Pf_predict.Reconvergence.predict recpred ~branch_pc:pc.(i) with
            | Some r ->
                [ { Pf_core.Spawn_point.at_pc = pc.(i); target_pc = r;
                    category = Pf_core.Spawn_point.Other } ]
            | None -> [])
        | k when k = k_call || k = k_ind_call -> fall_through_of i
        | _ -> []
      else if input.use_dmt then
        (* Dynamic Multi-Threading heuristics (Akkary and Driscoll,
           Section 5 of the paper): the static address after a backward
           branch approximates the loop fall-through; the return address
           of a call is the procedure fall-through. *)
        match kind.(i) with
        | k when k = k_branch ->
            if Bytes.get backward i = '\001' then
              [ { Pf_core.Spawn_point.at_pc = pc.(i);
                  target_pc = pc.(i) + Pf_isa.Instr.bytes_per_instr;
                  category = Pf_core.Spawn_point.Loop_ft } ]
            else []
        | k when k = k_call || k = k_ind_call -> fall_through_of i
        | _ -> []
      else []
    in
    (* the common case — no dynamic candidate — reuses the hint cache's
       stored list instead of copying it through (@) *)
    match static, dyn with
    | s, [] -> s
    | [], d -> d
    | s, d -> s @ d
  in
  (* The Task Spawn Unit watches the fetch stream. For conditional
     branches the spawn happens after the outcome has been shifted into
     the history, so the control-equivalent task inherits a history that
     includes the branch it jumps over; for calls it happens before the
     RAS push, since the spawned task lives at the return point where
     that entry has already been consumed. *)
  let spawn_at t i =
    match spawn_candidates_at i with
    | [] -> ()
    | cands -> try_spawn t i cands
  in

  (* ---- fetch ---- *)
  let fetchable t =
    t.blocked_branch < 0 && t.stall_until <= !now && t.fetch_ptr < t.end_idx
    && t.fetch_ptr - t.dispatch_ptr < cfg.Config.fetch_buffer
  in
  (* fetch-priority order for younger tasks: fewest in-flight first,
     ties broken oldest-first (start_idx is unique per live task, so the
     order is total and deterministic) *)
  let task_lt a b =
    a.inflight < b.inflight
    || (a.inflight = b.inflight && a.start_idx < b.start_idx)
  in
  (* scratch arbitration array, reused every cycle *)
  let elig = Array.make cap initial_task in
  let fetch () =
    (* unblock tasks whose mispredicted branch has resolved *)
    for k = 0 to !live - 1 do
      let t = ring_at k in
      if t.blocked_branch >= 0 then begin
        let b = t.blocked_branch in
        if completed b then begin
          let resume =
            max (complete_c.(b) + 1)
              (fetch_c.(b) + cfg.Config.min_mispredict_penalty)
          in
          if !now >= resume then t.blocked_branch <- -1
        end
      end
    done;
    let n_elig = ref 0 in
    for k = 0 to !live - 1 do
      let t = ring_at k in
      if fetchable t then begin
        elig.(!n_elig) <- t;
        incr n_elig
      end
    done;
    (* biased ICount (as in Threaded Multiple-Path Execution): the
       oldest task — the one global retirement depends on — always
       fetches first; remaining fetch slots go to the younger task with
       the fewest in-flight instructions. A selection pass over the
       scratch array picks the same tasks, in the same order, as the old
       sort-then-truncate, without allocating. *)
    let base = if cfg.Config.biased_fetch && !n_elig > 0 then 1 else 0 in
    let n_chosen = min !n_elig cfg.Config.fetch_tasks_per_cycle in
    for r = base to n_chosen - 1 do
      let m = ref r in
      for j = r + 1 to !n_elig - 1 do
        if task_lt elig.(j) elig.(!m) then m := j
      done;
      if !m <> r then begin
        let tmp = elig.(r) in
        elig.(r) <- elig.(!m);
        elig.(!m) <- tmp
      end
    done;
    (* shared fetch bandwidth: the priority task takes what it can this
       cycle (it stops at a taken branch anyway); later tasks consume
       the leftover slots *)
    let budget = ref cfg.Config.width in
    for c = 0 to n_chosen - 1 do
      let t = elig.(c) in
      let continue_ = ref true in
      while !continue_ && !budget > 0 && fetchable t do
        let i = t.fetch_ptr in
        (* I-cache access on line change *)
        let line = pc.(i) land line_mask in
        if line <> t.last_line then begin
          t.last_line <- line;
          let latency = Pf_cache.Hierarchy.fetch_latency hier pc.(i) in
          if latency > 0 then begin
            (* a miss stalls this task but leaves the cycle live: when
               [fetch_tasks_per_cycle] chose only tasks that miss, an
               unchosen task is still fetchable next cycle, a gate
               [next_event] does not track *)
            progress := true;
            t.stall_until <- !now + latency;
            t.stall_reason <- Sink.r_icache;
            continue_ := false
          end
        end;
        if !continue_ then begin
          set_state i s_fetched;
          fetch_c.(i) <- !now;
          tstart.(i) <- t.start_idx;
          owner_slot.(i) <- t.slot;
          progress := true;
          if observe then sink.Sink.on_fetch ~cycle:!now ~slot:t.slot ~index:i;
          (* control-equivalent sp: cross-task sp sources are ready.
             [eff_mutable] (not just [sp_hint]) so the guard provably
             never writes through an aliased flat trace *)
          if eff_mutable then begin
            if eff_src1.(i) >= 0 && eff_src1.(i) < t.start_idx
               && Bytes.get src1_sp i = '\001'
            then eff_src1.(i) <- -1;
            if eff_src2.(i) >= 0 && eff_src2.(i) < t.start_idx
               && Bytes.get src2_sp i = '\001'
            then eff_src2.(i) <- -1
          end;
          t.inflight <- t.inflight + 1;
          t.fetch_ptr <- i + 1;
          decr budget;
          if kind.(i) <> k_branch && kind.(i) <> k_call then spawn_at t i;
          (* control-flow prediction *)
          (match kind.(i) with
          | k when k = k_branch ->
              let history =
                if cfg.Config.shared_history then !shared_hist else t.history
              in
              let predicted =
                Pf_predict.Gshare.predict_with gshare ~history ~pc:pc.(i)
              in
              Pf_predict.Gshare.update_with gshare ~history ~pc:pc.(i)
                ~taken:taken.(i);
              let next =
                Pf_predict.Gshare.shift gshare ~history ~taken:taken.(i)
              in
              if cfg.Config.shared_history then shared_hist := next
              else t.history <- next;
              spawn_at t i;
              if predicted <> taken.(i) then begin
                cinc m_branch_mp;
                t.blocked_branch <- i;
                continue_ := false
              end
              else if taken.(i) then continue_ := false
                (* one taken branch per task per cycle *)
          | k when k = k_jump -> continue_ := false
          | k when k = k_call ->
              spawn_at t i;
              Pf_predict.Ras.push t.ras (pc.(i) + Pf_isa.Instr.bytes_per_instr);
              continue_ := false
          | k when k = k_return ->
              (match Pf_predict.Ras.pop t.ras with
              | Some target when target = next_pc.(i) -> ()
              | Some _ | None ->
                  cinc m_ret_mp;
                  t.blocked_branch <- i);
              continue_ := false
          | k when k = k_ind_jump || k = k_ind_call ->
              if k = k_ind_call then
                Pf_predict.Ras.push t.ras (pc.(i) + Pf_isa.Instr.bytes_per_instr);
              let predicted = Pf_predict.Indirect.predict indirect ~pc:pc.(i) in
              Pf_predict.Indirect.update indirect ~pc:pc.(i)
                ~target:next_pc.(i);
              (match predicted with
              | Some tg when tg = next_pc.(i) -> ()
              | Some _ | None ->
                  cinc m_ind_mp;
                  t.blocked_branch <- i);
              continue_ := false
          | _ -> ())
        end
      done
    done
  in

  (* ---- self-check: validate the resource counters against a recount
     of the pipeline state (enabled with PF_CHECK=1; used by tests) ---- *)
  let self_check () =
    let rob = ref 0 and sched = ref 0 and divert = ref 0 in
    for i = 0 to n - 1 do
      let st = get_state i in
      if st = s_divert || st = s_sched || st = s_issued then incr rob;
      if st = s_sched then incr sched;
      if st = s_divert then incr divert
    done;
    if !rob <> !rob_count || !sched <> !sched_count || !divert <> !divert_count
    then
      failwith
        (Printf.sprintf
           "Engine self-check failed at cycle %d: rob %d/%d sched %d/%d \
           divert %d/%d"
           !now !rob !rob_count !sched !sched_count !divert !divert_count);
    for i = 0 to !retire_ptr - 1 do
      if get_state i <> s_retired then
        failwith
          (Printf.sprintf
             "Engine self-check failed: unretired instruction %d below the \
              retire pointer %d"
             i !retire_ptr)
    done;
    if !live < 0 || !live > cap then
      failwith "Engine self-check failed: live-task counter out of range";
    (* every live ring entry must own its slot (the ring replaced the
       task list; this is the moral equivalent of the old
       List.length !order = !live check) *)
    for k = 0 to !live - 1 do
      let t = ring_at k in
      match slot_task.(t.slot) with
      | Some t' when t' == t -> ()
      | _ -> failwith "Engine self-check failed: ring/slot table out of sync"
    done;
    (* task regions must partition the unretired window in order *)
    if !live > 0 then begin
      let prev_end = ref (ring_at 0).start_idx in
      for k = 0 to !live - 1 do
        let t = ring_at k in
        if t.start_idx <> !prev_end then
          failwith "Engine self-check failed: task regions not contiguous";
        prev_end := t.end_idx
      done
    end;
    (* the memory tracker's per-slot live count must agree with its
       storage, and a slot with no task must hold no CAM entries — a
       squash or task end that forgot reset_slot would leak stale loads
       into the next task occupying the slot *)
    if use_tracker then
      for s = 0 to cap - 1 do
        let lv = Mem_tracker.live tracker ~slot:s in
        let rc = Mem_tracker.recount tracker ~slot:s in
        if lv <> rc then
          failwith
            (Printf.sprintf
               "Engine self-check failed: mem tracker slot %d count %d/%d" s lv
               rc);
        if slot_task.(s) = None && lv <> 0 then
          failwith
            (Printf.sprintf
               "Engine self-check failed: mem tracker leak in freed slot %d \
                (%d entries)"
               s lv)
      done
  in
  let checking =
    match Sys.getenv_opt "PF_CHECK" with Some s when s <> "" -> true | _ -> false
  in
  (* ---- slot-cycle accounting (runs only with a sink attached) ----
     Attributes each (cycle, slot) pair to exactly one Sink reason code,
     inspected at the top of the cycle before any stage mutates state.
     Priority: an explicit stall (i-cache / squash recovery / spawn
     wait) wins, then an unresolved mispredict; otherwise the oldest
     not-yet-complete instruction of the task names the bottleneck —
     parked in the divert queue, an issued load in the memory hierarchy,
     or ordinary in-flight work (base). A task with nothing incomplete
     is doing base work while it still has fetching left, and idle when
     its whole region is done and it merely waits to retire. [obs_ptr]
     amortises the scan: it only moves forward past completed
     instructions (reset on squash), so accounting stays O(1) per cycle
     on average and touches no timing state. *)
  let classify t =
    if t.stall_until > !now then t.stall_reason
    else if t.blocked_branch >= 0 then Sink.r_branch_mispredict
    else begin
      let p = ref t.obs_ptr in
      while !p < t.fetch_ptr && completed !p do incr p done;
      t.obs_ptr <- !p;
      if !p >= t.fetch_ptr then
        if t.fetch_ptr >= t.end_idx then Sink.r_idle else Sink.r_base
      else
        let s = get_state !p in
        if s = s_divert then Sink.r_divert_wait
        else if s = s_issued && kind.(!p) = k_load then Sink.r_memory
        else Sink.r_base
    end
  in
  let emit_slot_cycles () =
    for s = 0 to Array.length slot_task - 1 do
      let reason =
        match slot_task.(s) with
        | Some t -> classify t
        | None -> Sink.r_idle
      in
      sink.Sink.on_slot_cycle ~cycle:!now ~slot:s ~reason
    done
  in
  (* ---- event skipping: where may the next state change come from? ----
     Every stage gate is either state-based — it cannot open without
     some stage having acted, i.e. without [progress] — or time-based.
     The complete list of time-based gates (docs/ENGINE.md):
       - an issued instruction completing (retire/issue readiness and
         the head-of-ROB stall): covered by the cycle wheel;
       - a task's [stall_until] (i-cache miss, squash recovery, spawn
         latency);
       - a blocked mispredict's resume cycle once its branch completed
         (while the branch is incomplete the wheel covers it);
       - the frontend-depth delay of a task's dispatch-head instruction.
     [next_event] returns the earliest cycle >= now at which any of
     these opens; after a cycle with no progress, every cycle strictly
     before it is provably identical to the one just simulated, so the
     loop charges them to the frozen head-stall reason and jumps. *)
  let next_event () =
    let best = ref max_int in
    for k = 0 to !live - 1 do
      let t = ring_at k in
      if t.stall_until >= !now && t.stall_until < !best then
        best := t.stall_until;
      let b = t.blocked_branch in
      (if b >= 0 && completed b then begin
         let r =
           max (complete_c.(b) + 1)
             (fetch_c.(b) + cfg.Config.min_mispredict_penalty)
         in
         if r >= !now && r < !best then best := r
       end);
      let d = t.dispatch_ptr in
      if d < t.fetch_ptr && get_state d = s_fetched then begin
        let r = fetch_c.(d) + cfg.Config.frontend_depth in
        if r >= !now && r < !best then best := r
      end
    done;
    (* every pending completion is < now + wheel_size (larger latencies
       cleared skip_live), so scanning the wheel up to the earliest
       other gate finds the earliest completion exactly *)
    let limit = if !best < !now + wheel_size then !best else !now + wheel_size in
    let c = ref !now in
    let found = ref false in
    while (not !found) && !c < limit do
      if wheel.(!c land wheel_mask) = !c then found := true else incr c
    done;
    if !found then !c else !best
  in
  (* ---- main loop ---- *)
  let skip_reason = Array.make cfg.Config.max_tasks Sink.r_idle in
  let watchdog = cfg.Config.max_cycles_per_instr * n in
  if observe then
    sink.Sink.on_task_start ~cycle:0 ~slot:initial_task.slot
      ~task:initial_task.id ~parent_slot:(-1) ~at_pc:(-1);
  while !retire_ptr < n do
    (let i = !retire_ptr in
     if not (completed i) then begin
       let st = get_state i in
       if st = s_divert then cinc m_stall_divert
       else if st = s_sched then cinc m_stall_sched
       else if st = s_issued then cinc m_stall_exec
       else cinc m_stall_frontend
     end);
    if observe then emit_slot_cycles ();
    progress := false;
    retire ();
    issue ();
    drain_divert ();
    dispatch ();
    fetch ();
    incr now;
    if checking && !now land 63 = 0 then self_check ();
    if !now > watchdog then
      failwith
        (Printf.sprintf "Engine: watchdog at cycle %d (retired %d of %d)" !now
           !retire_ptr n);
    if !skip_live && (not !progress) && !retire_ptr < n then begin
      let target =
        let e = next_event () in
        if e > watchdog + 1 then watchdog + 1 else e
      in
      if target > !now then begin
        (* cycles [now, target) are identical to the dead cycle just
           simulated: charge them to the same (frozen) head-of-ROB
           reason and per-slot accounting, then jump *)
        let k = target - !now in
        let st = get_state !retire_ptr in
        Counters.add
          (if st = s_divert then m_stall_divert
           else if st = s_sched then m_stall_sched
           else if st = s_issued then m_stall_exec
           else m_stall_frontend)
          k;
        if observe then begin
          (* classification is constant across the skipped range (no
             completion, unblock or stall edge lies strictly inside it),
             so compute each slot's reason once at the first skipped
             cycle and replay it *)
          for s = 0 to Array.length slot_task - 1 do
            skip_reason.(s) <-
              (match slot_task.(s) with
              | Some t -> classify t
              | None -> Sink.r_idle)
          done;
          for c = !now to target - 1 do
            for s = 0 to Array.length slot_task - 1 do
              sink.Sink.on_slot_cycle ~cycle:c ~slot:s ~reason:skip_reason.(s)
            done
          done
        end;
        now := target;
        if checking && !now land 63 = 0 then self_check ();
        if !now > watchdog then
          failwith
            (Printf.sprintf "Engine: watchdog at cycle %d (retired %d of %d)"
               !now !retire_ptr n)
      end
    end
  done;
  (* Metrics.spawns is golden-locked to the fold order of the old
     per-spawn Hashtbl; replaying the category counts in first-seen
     order reproduces that table (and therefore its fold order) exactly. *)
  let spawn_counts = Hashtbl.create 8 in
  for k = 0 to !n_cat_seen - 1 do
    let c = cat_seen.(k) in
    Hashtbl.replace spawn_counts (cat_of_code c) cat_count.(c)
  done;
  Scratch.checkin scratch;
  { Metrics.instructions = n;
    cycles = !now;
    branch_mispredicts = cv m_branch_mp;
    indirect_mispredicts = cv m_ind_mp;
    return_mispredicts = cv m_ret_mp;
    spawns = Hashtbl.fold (fun c v acc -> (c, v) :: acc) spawn_counts [];
    squashes = cv m_squashes;
    squashed_instrs = cv m_squashed;
    diverted = cv m_diverted;
    tasks_spawned = cv m_tasks;
    max_live_tasks = !m_max_live;
    l1i_misses = Pf_cache.Hierarchy.l1i_misses hier;
    l1d_misses = Pf_cache.Hierarchy.l1d_misses hier;
    l2_misses = Pf_cache.Hierarchy.l2_misses hier;
    stall_frontend = cv m_stall_frontend;
    stall_divert = cv m_stall_divert;
    stall_sched = cv m_stall_sched;
    stall_exec = cv m_stall_exec }
