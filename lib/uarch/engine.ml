type mode = Fast | Self_checked | Stepped

type input = {
  config : Config.t;
  trace : Pf_trace.Tracer.t;
  occurrence : Pf_trace.Occurrence.t;
  hints : Pf_core.Hint_cache.t;
  speculation : Pf_core.Safety_filter.t Pf_core.Policy.speculation;
  sink : Pf_obs.Sink.t;
  counters : Pf_obs.Counters.t option;
  mode : mode;
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

(* instruction kind codes (the shared window's [kind] column) *)
let k_load = Pf_isa.Instr.k_load
let k_store = Pf_isa.Instr.k_store
let k_branch = Pf_isa.Instr.k_branch
let k_jump = Pf_isa.Instr.k_jump
let k_call = Pf_isa.Instr.k_call
let k_return = Pf_isa.Instr.k_return
let k_ind_jump = Pf_isa.Instr.k_ind_jump
let k_ind_call = Pf_isa.Instr.k_ind_call

(* Cycle wheel used by event skipping: one slot per cycle modulo the
   wheel size, stamped with the exact completion cycle at issue time.
   A slot is "armed" for cycle [c] iff it holds exactly [c]; stale
   stamps from completions that have already passed never match a
   probed future cycle, so the wheel needs no per-cycle clearing. The
   wakeup lists' completion buckets are indexed the same way. Every
   completion fits: the slowest issue is a load that misses the L2,
   2 + 10 + 100 = 112 cycles with Figure 8's hierarchy (no ALU latency
   exceeds 12), and the assertion below holds that bound under the
   wheel size. *)
let wheel_bits = 9
let wheel_size = 1 lsl wheel_bits
let wheel_mask = wheel_size - 1

let () =
  let p = Pf_cache.Hierarchy.default_params in
  assert (
    p.Pf_cache.Hierarchy.l1d_hit_latency + p.l1_miss_penalty
    + p.l2_miss_penalty
    < wheel_size)

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
   and none of them escapes [simulate] (sinks receive scalars). The
   wakeup lists and dispatch sequence numbers hold 32-bit cells, so
   their 16 bytes per instruction cost what two int arrays would. *)
module Scratch = struct
  type t = {
    n : int;
    state : Bytes.t;           (* '\000' *)
    synced : Bytes.t;          (* '\000' *)
    fetch_c : int array;       (* 0 *)
    complete_c : int array;    (* max_int *)
    tstart : int array;        (* 0 *)
    owner_slot : int array;    (* 0 = the initial task's slot *)
    wake : Wakeq.t;            (* empty; lists: producers, then buckets *)
    dseq : Bytes.t;            (* 32-bit; written at every divert *)
    src1 : int array;          (* blitted from the window before use *)
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
      owner_slot = Array.make n 0;
      wake = Wakeq.create ~entries:n ~lists:(n + wheel_size);
      dseq = Bytes.create (4 * n);
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
    Array.fill s.owner_slot 0 s.n 0;
    Wakeq.reset s.wake

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

(* ---- the state of one run ----
   [simulate] drives the stages below, each a top-level function of [t]
   (docs/ENGINE.md, "Stages"). The only closures a run builds are the
   queue callbacks at the end of the record, once per run. *)
type t = {
  input : input;
  cfg : Config.t;
  n : int;
  sc : Scratch.t; (* checked back into the pool when the run ends *)
  (* Observability. [observe] is computed once; every hook site is
     guarded by it, so with the null sink a simulation pays one boolean
     test per site and never enters the per-slot accounting pass. The
     sink must never feed back into timing — test_golden.ml holds the
     metrics byte-identical with sinks attached and detached. *)
  sink : Sink.t;
  observe : bool;
  watchdog : int; (* a run still going past this cycle is deadlocked *)
  (* The window is shared and immutable: every array below is read
     only, so concurrent simulations of the same window (one per policy,
     across worker domains) alias one copy. See docs/ENGINE.md. The
     arrays the issue path reads are fields of their own. *)
  trace : Pf_trace.Tracer.t;
  pc : int array;
  kind : int array;
  addr : int array;
  memsrc : int array;
  (* Per-run effective register sources. The spawn hint cache carries
     register-dependence information (Section 3.1); the stack pointer at
     a control-equivalent spawn target equals its value at the spawn
     point (call depth balances along every path), so a cross-task sp
     dependence is satisfied at spawn rather than through the divert
     machinery. The fetch stage patches these copies accordingly — they
     are the one part of the window's columns that is per-run mutable.
     The only writes (fetch's sp-hint patching) require [sp_hint] and a
     cross-task producer, which needs a second task; a single-task run
     can therefore alias the shared window instead of copying it. *)
  eff_mutable : bool;
  eff_src1 : int array;
  eff_src2 : int array;
  (* pipeline state per instruction (window-sized arrays from the pool);
     [complete_c] is max_int until issue, [tstart] its task's start_idx *)
  state : Bytes.t;
  fetch_c : int array;
  complete_c : int array;
  synced : Bytes.t;
  tstart : int array;
  (* owning task of every fetched instruction, maintained at fetch; a
     refetch after a squash rewrites the same entry, so a lookup is O(1)
     instead of a scan of the live tasks. Stored as the owning slot id
     (an immediate — the fetch-path store needs no write barrier, and
     the array can live in the scratch pool); every read happens while
     the owner is live, so its slot still resolves through
     [slot_task]. *)
  owner_slot : int array;
  gshare : Pf_predict.Gshare.t;
  mutable shared_hist : int; (* the history under [shared_history] *)
  indirect : Pf_predict.Indirect.t;
  store_sets : Pf_predict.Store_sets.t;
  recpred : Pf_predict.Reconvergence.t;
  hier : Pf_cache.Hierarchy.t;
  (* The policy's speculation descriptor (docs/ENGINE.md), unpacked
     once: the run-time spawn source, and the DOACROSS near-carry sync —
     a cross-task load whose producing store lies within
     [doacross_sync_distance] immediately-preceding live tasks is
     force-synchronised at dispatch; far carries speculate under the
     tracker. *)
  dynamic : Pf_core.Policy.dynamic_spawns;
  near_carry_sync : bool;
  (* The memory-dependence violation tracker (docs/ENGINE.md): a
     per-task load CAM, probed by retiring stores. Off by default —
     [use_tracker] guards every touch point, so engine-3 timing is
     bit-exact with the tracker disabled. *)
  use_tracker : bool;
  tracker : Mem_tracker.t;
  (* Slot allocation: a task occupies one of max_tasks contexts for its
     whole life. Slots give the sinks a stable, dense identity (a CPI
     row, a trace track) that survives task creation and death. *)
  slot_task : task option array;
  (* Live tasks, oldest first, in a preallocated ring: the k-th oldest
     lives at ring.((head + k) mod max_tasks). max_tasks is the hard
     live-task cap, so the ring can never overflow; all walks that used
     to traverse an OCaml list allocate nothing. Dead entries keep stale
     task pointers (never read — [live] bounds every walk). *)
  ring : task array;
  mutable head : int;
  mutable live : int;
  mutable next_task_id : int;
  elig : task array; (* fetch arbitration scratch, reused every cycle *)
  mutable best_frac : float; (* best early-work fraction seen *)
  (* spawns per category, by [cat_code]; [Metrics.spawns] lists the
     categories that spawned in [spawn_order], the order the goldens
     pin *)
  cat_count : int array;
  (* a high-water mark, not monotonic, so not a registry counter *)
  mutable max_live : int;
  mutable rob_count : int;
  mutable sched_count : int;
  mutable divert_count : int;
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
  young_rob_limit : int;
  per_task_rob_cap : int;
  young_sched_limit : int;
  (* ready queues: index-sorted scheduler (issue priority = program
     order, kept sorted by construction instead of List.sort per cycle)
     and FIFO divert queue (dependence order) *)
  scheduler : Readyq.t;
  divertq : Readyq.t;
  (* Wakeup lists (docs/ENGINE.md): the queues above hold only awake
     entries. A sleeping entry is on the list of the producer it waits
     for (lists 0 .. n-1) or, once that producer has issued, on the
     bucket of its completion cycle (lists n .. n + wheel_size - 1,
     indexed like the cycle wheel). *)
  wake : Wakeq.t;
  (* The divert queue is kept in dispatch order, so an entry woken
     back into it is placed by its dispatch sequence number: 32-bit
     cells compared by wrapped difference, exact while the queued
     entries were diverted fewer than 2^31 diverts apart. *)
  dseq : Bytes.t;
  mutable next_dseq : int;
  mutable now : int;
  mutable retire_ptr : int;
  (* [progress] is set by every stage action that mutates pipeline,
     task, predictor or cache state. When a whole cycle passes without
     it, nothing in the machine can act until a time-based gate opens,
     and the driver jumps [now] straight there (see [next_event]). *)
  mutable progress : bool;
  wheel : int array;
  (* the issue stage's per-sweep state: slots left, whether a squash
     ran inside the sweep, and the start_idx of the oldest live task
     (loads it owns are non-speculative and stay out of the tracker
     CAM); the divert drain's budget and oldest start likewise *)
  mutable issue_budget : int;
  mutable squashed_during_sweep : bool;
  mutable issue_oldest_start : int;
  mutable drain_budget : int;
  mutable drain_oldest_start : int;
  slot_reason : int array; (* [account]'s per-slot Sink reasons *)
  (* Event counts live in the named-counter registry (a counter handle
     is one mutable cell — bumping it costs the same as a ref), so tools
     can enumerate everything a run counted; Metrics is assembled from
     the registry at the end. *)
  m_branch_mp : Counters.counter;
  m_ind_mp : Counters.counter;
  m_ret_mp : Counters.counter;
  m_squashes : Counters.counter;
  m_squashed : Counters.counter;
  m_diverted : Counters.counter;
  m_tasks : Counters.counter;
  m_spawn_suppressed : Counters.counter;
  m_divert_released : Counters.counter;
  m_load_syncs : Counters.counter;
  m_mem_violations : Counters.counter;
  m_mem_syncs : Counters.counter;
  m_level_bypass : Counters.counter;
  m_level_conservative : Counters.counter;
  m_level_optimistic : Counters.counter;
  (* the head-of-ROB stall counters, indexed by the state of an
     incomplete head: frontend (none, fetched), divert, sched, exec *)
  stall : Counters.counter array;
  (* the queue callbacks over this record *)
  issue_visit : int -> bool;
  drain_visit : int -> bool;
  keep_sched : int -> bool;
  keep_divert : int -> bool;
  divert_before : int -> int -> bool;
}

let cinc = Counters.incr
let cv = Counters.value
let get_state st i = Char.code (Bytes.unsafe_get st.state i)
let set_state st i s = Bytes.unsafe_set st.state i (Char.unsafe_chr s)

let ring_at st k =
  let p = st.head + k and cap = Array.length st.ring in
  st.ring.(if p >= cap then p - cap else p)

let ring_set st k t =
  let p = st.head + k and cap = Array.length st.ring in
  st.ring.(if p >= cap then p - cap else p) <- t

let owner_task st i =
  match st.slot_task.(st.owner_slot.(i)) with
  | Some t -> t
  | None -> failwith "Engine: owner slot has no live task"

let bucket st c = st.n + (c land wheel_mask)

let divert_before st a b =
  Int32.to_int
    (Int32.sub (Bytes.get_int32_ne st.dseq (4 * a))
       (Bytes.get_int32_ne st.dseq (4 * b)))
  < 0

(* The scheduler/divert sweeps run every cycle over every awake entry,
   so their array reads use unsafe accessors. The indices are safe by
   construction: sweeps hand out queue entries, which are window
   indices, and producer fields (src1/src2/memsrc) of in-window
   instructions are themselves window indices or -1 — and every -1 is
   tested before the access. *)
let completed st i =
  let s = get_state st i in
  s = s_retired || (s = s_issued && Array.unsafe_get st.complete_c i <= st.now)

let cross st i p = p >= 0 && p < Array.unsafe_get st.tstart i

(* The two time gates a stage waits on besides completions and
   [stall_until], each written once because [next_event] must mirror
   the stage exactly: the cycle from which a task blocked on
   mispredicted branch [b] fetches again once [b] has completed, and
   the cycle from which fetched instruction [i] may dispatch. *)
let mispredict_resume st b =
  max (st.complete_c.(b) + 1)
    (st.fetch_c.(b) + st.cfg.Config.min_mispredict_penalty)

let frontend_ready st i = st.fetch_c.(i) + st.cfg.Config.frontend_depth

(* ---- tasks and spawn feedback ---- *)

let rec free_slot st s =
  if s >= Array.length st.slot_task then
    failwith "Engine: no free task slot (live-count out of sync)"
  else match st.slot_task.(s) with None -> s | Some _ -> free_slot st (s + 1)

let make_task slot_task id slot start_idx end_idx start_cycle stall_reason
    origin level history ras =
  let t =
    { id; slot; start_idx; end_idx; fetch_ptr = start_idx;
      dispatch_ptr = start_idx; stall_until = start_cycle; stall_reason;
      blocked_branch = -1; last_line = -1; origin; level; inflight = 0;
      rob_used = 0; obs_ptr = start_idx; history; history0 = history;
      ras = Pf_predict.Ras.copy ras; ras0 = Pf_predict.Ras.copy ras }
  in
  slot_task.(slot) <- Some t;
  t

(* Dynamic spawn-profitability feedback (Section 3.1: "the Spawn Unit
   may decide to spawn the new task, depending on dynamic feedback about
   which tasks are profitable"), kept in the scratch's flat [sp_*]
   arrays indexed by static spawn-point id: [sp_work] counts the
   instructions a point's tasks fetched while young, [sp_work_early]
   those done before the task became the oldest, [sp_squashed] its
   tasks hit by a violation. Every candidate's at_pc is the PC of the
   instruction being fetched (the hint cache is keyed by at_pc and the
   dynamic policies construct candidates at pc.(i)), so ids fit in
   [0, max window PC / bytes_per_instr]. *)
let bpi = Pf_isa.Instr.bytes_per_instr
let sp_id at_pc = at_pc / bpi

let spawn_order =
  Pf_core.Spawn_point.[ Loop_ft; Loop_iter; Other; Hammock; Proc_ft ]

let cat_code = function
  | Pf_core.Spawn_point.Loop_ft -> 0
  | Pf_core.Spawn_point.Loop_iter -> 1
  | Pf_core.Spawn_point.Other -> 2
  | Pf_core.Spawn_point.Hammock -> 3
  | Pf_core.Spawn_point.Proc_ft -> 4

let decay sc sid =
  (* keep the feedback adaptive: early warm-up squashes (before the
     store sets learn) must not poison a spawn point forever *)
  if sc.Scratch.sp_work.(sid) >= 2048 || sc.Scratch.sp_spawned.(sid) >= 64
  then begin
    sc.Scratch.sp_work.(sid) <- sc.Scratch.sp_work.(sid) / 2;
    sc.Scratch.sp_work_early.(sid) <- sc.Scratch.sp_work_early.(sid) / 2;
    sc.Scratch.sp_spawned.(sid) <- sc.Scratch.sp_spawned.(sid) / 2;
    sc.Scratch.sp_squashed.(sid) <- sc.Scratch.sp_squashed.(sid) / 2
  end

(* A spawn point is profitable when the tasks it creates actually run
   in parallel with their elders: a healthy task has completed a good
   fraction of its fetched work by the time it becomes the oldest.
   Tasks that merely trail a serial dependence chain complete almost
   nothing early and only cost fetch bandwidth and contexts. Points
   also compete: with only 8 task contexts, a point whose tasks do far
   less parallel work than the best-known point is not worth a
   context. *)
let profitable st at_pc =
  let sc = st.sc and sid = sp_id at_pc in
  decay sc sid;
  if not st.cfg.Config.feedback then true
  else if sc.Scratch.sp_spawned.(sid) < 4 then true
  else
    let bad =
      (sc.Scratch.sp_work.(sid) >= 64
      &&
      let f =
        float_of_int sc.Scratch.sp_work_early.(sid)
        /. float_of_int sc.Scratch.sp_work.(sid)
      in
      if f > st.best_frac then st.best_frac <- f;
      f *. 3. < 1. || f *. 2. < st.best_frac)
      || sc.Scratch.sp_squashed.(sid) * 4 > sc.Scratch.sp_spawned.(sid)
    in
    if not bad then true
    else begin
      (* periodic probe so a point can rehabilitate *)
      let supp = sc.Scratch.sp_suppressed in
      supp.(sid) <- supp.(sid) + 1;
      let probe = supp.(sid) mod 16 = 0 in
      if not probe then cinc st.m_spawn_suppressed;
      probe
    end

(* when a task is promoted to oldest, grade how much of its fetched
   work it already completed in parallel with its elders *)
let grade st t =
  if t.origin >= 0 then begin
    let sid = sp_id t.origin in
    let fetched = t.fetch_ptr - t.start_idx in
    if fetched >= 16 then begin
      let early = ref 0 in
      for i = t.start_idx to t.fetch_ptr - 1 do
        if completed st i then incr early
      done;
      let sc = st.sc in
      sc.Scratch.sp_work.(sid) <- sc.Scratch.sp_work.(sid) + fetched;
      sc.Scratch.sp_work_early.(sid) <- sc.Scratch.sp_work_early.(sid) + !early
    end
  end

(* ---- squash: reset the violating task and everything younger ----
   Prunes the divert queue; the scheduler is swept or re-filtered by
   the caller. [reason] charges the recovery stall: issue-time
   dependence violations keep [r_squash_recovery], tracker-detected
   violations at retire are charged to [r_mem_violation]. *)
let squash_from st ~reason victim =
  cinc st.m_squashes;
  st.progress <- true;
  let squashed_before = cv st.m_squashed in
  let pos = ref 0 in
  while ring_at st !pos != victim do incr pos done;
  let tasks_hit = st.live - !pos in
  for k = !pos to st.live - 1 do
    let t = ring_at st k in
    let lo = max t.start_idx st.retire_ptr in
    for i = lo to t.fetch_ptr - 1 do
      let s = get_state st i in
      if s <> s_none then begin
        if s >= s_divert && s <> s_retired then
          st.rob_count <- st.rob_count - 1;
        if s = s_divert then st.divert_count <- st.divert_count - 1;
        if s = s_sched then st.sched_count <- st.sched_count - 1;
        (* a sleeper leaves its list with it *)
        if s = s_divert || s = s_sched then Wakeq.remove st.wake i;
        if s <> s_retired then begin
          set_state st i s_none;
          st.complete_c.(i) <- max_int;
          cinc st.m_squashed
        end
      end
    done;
    t.fetch_ptr <- lo;
    t.dispatch_ptr <- lo;
    if t.obs_ptr > lo then t.obs_ptr <- lo;
    t.stall_until <- st.now + st.cfg.Config.squash_penalty;
    t.stall_reason <- reason;
    t.blocked_branch <- -1;
    t.last_line <- -1;
    t.inflight <- 0;
    t.rob_used <- 0;
    t.history <- t.history0;
    t.ras <- Pf_predict.Ras.copy t.ras0;
    (* the squashed task's speculative loads are discarded with it *)
    if st.use_tracker then Mem_tracker.reset_slot st.tracker t.slot;
    if t.origin >= 0 then begin
      let sid = sp_id t.origin in
      st.sc.Scratch.sp_squashed.(sid) <- st.sc.Scratch.sp_squashed.(sid) + 1
    end
  done;
  if st.observe then
    st.sink.Sink.on_squash ~cycle:st.now ~slot:victim.slot ~tasks:tasks_hit
      ~instrs:(cv st.m_squashed - squashed_before);
  Readyq.sweep st.divertq st.keep_divert

(* ---- retire ---- *)
let retire st =
  let budget = ref st.cfg.Config.retire_width in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && st.retire_ptr < st.n do
    let i = st.retire_ptr in
    if completed st i then begin
      set_state st i s_retired;
      st.rob_count <- st.rob_count - 1;
      decr budget;
      st.progress <- true;
      if st.dynamic = Reconvergence then
        Pf_predict.Reconvergence.retire st.recpred ~pc:st.pc.(i)
          ~kind:(Array.unsafe_get st.kind i);
      let t = owner_task st i in
      t.inflight <- t.inflight - 1;
      t.rob_used <- t.rob_used - 1;
      if st.observe then
        st.sink.Sink.on_retire ~cycle:st.now ~slot:t.slot ~index:i;
      st.retire_ptr <- i + 1;
      (* tracker probe: the retiring store commits its write; a hit in
         a younger task's load CAM means that task consumed the
         location before the write committed — a cross-task
         read-before-write violation. Squash the oldest offender (and
         with it everything younger), train the store set with the
         recorded load PC so the offender synchronises from now on,
         and charge the recovery to the mem_violation reason. *)
      if
        st.use_tracker
        && Array.unsafe_get st.kind i = k_store
        && Array.unsafe_get st.addr i >= 0
        && st.live > 1
      then begin
        let a = Array.unsafe_get st.addr i in
        let hit = ref false in
        let k = ref 1 in
        while (not !hit) && !k < st.live do
          let ty = ring_at st !k in
          let lpc = Mem_tracker.probe st.tracker ~slot:ty.slot ~addr:a in
          if lpc >= 0 then begin
            hit := true;
            cinc st.m_mem_violations;
            Pf_predict.Store_sets.train_violation st.store_sets ~load_pc:lpc;
            squash_from st ~reason:Sink.r_mem_violation ty
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
  while !dropping && st.live > 0 do
    let t = ring_at st 0 in
    if t.fetch_ptr >= t.end_idx && st.retire_ptr >= t.end_idx then begin
      st.head <-
        (if st.head + 1 >= Array.length st.ring then 0 else st.head + 1);
      st.live <- st.live - 1;
      st.slot_task.(t.slot) <- None;
      if st.use_tracker then Mem_tracker.reset_slot st.tracker t.slot;
      st.progress <- true;
      if st.observe then
        st.sink.Sink.on_task_end ~cycle:st.now ~slot:t.slot ~task:t.id;
      if st.live > 0 then grade st (ring_at st 0)
    end
    else dropping := false
  done

(* ---- issue ---- *)

(* The first producer scheduler entry [i] still waits for, or -1: an
   incomplete register source, or the producing store of a load that
   must wait for it (same task, or synchronised). A speculative
   cross-task load waits only for its registers. *)
let unmet st i =
  let r1 = Array.unsafe_get st.eff_src1 i in
  if r1 >= 0 && not (completed st r1) then r1
  else
    let r2 = Array.unsafe_get st.eff_src2 i in
    if r2 >= 0 && not (completed st r2) then r2
    else
      let m = Array.unsafe_get st.memsrc i in
      if
        Array.unsafe_get st.kind i = k_load
        && m >= 0
        && ((not (cross st i m)) || Bytes.unsafe_get st.synced i = '\001')
        && not (completed st m)
      then m
      else -1

(* Put scheduler entry [i] to sleep until producer [p] completes: on
   [p]'s list until it issues, then in the bucket of its completion
   cycle. *)
let sleep_sched st i p =
  if get_state st p = s_issued then
    Wakeq.add st.wake (bucket st (Array.unsafe_get st.complete_c p)) i
  else Wakeq.add st.wake p i

(* [p] issued, completing at [c]: its scheduler waiters move to the
   bucket of [c], its divert waiters back into the divert queue, where
   this cycle's drain visits them in dispatch order *)
let wake_issued st p c =
  let w = ref (Wakeq.pop st.wake p) in
  while !w >= 0 do
    let i = !w in
    if get_state st i = s_sched then Wakeq.add st.wake (bucket st c) i
    else Readyq.insert st.divertq ~before:st.divert_before i;
    w := Wakeq.pop st.wake p
  done

let issue_step st i =
  if get_state st i <> s_sched then false (* squashed, drop *)
  else
    let p = unmet st i in
    if p >= 0 then begin
      sleep_sched st i p;
      false
    end
    else if st.issue_budget = 0 then true
    else begin
      let m = Array.unsafe_get st.memsrc i in
      if
        Array.unsafe_get st.kind i = k_load
        && m >= 0 && cross st i m
        && not (completed st m)
      then begin
        (* a speculative load beat its producer (an unsynchronised
           one, or [unmet] would have returned [m]): dependence
           violation — train and squash from this task *)
        Pf_predict.Store_sets.train_violation st.store_sets ~load_pc:st.pc.(i);
        squash_from st ~reason:Sink.r_squash_recovery (owner_task st i);
        st.squashed_during_sweep <- true;
        (* i itself is squashed with its task *)
        get_state st i = s_sched
      end
      else begin
        set_state st i s_issued;
        st.sched_count <- st.sched_count - 1;
        st.issue_budget <- st.issue_budget - 1;
        st.progress <- true;
        let k = Array.unsafe_get st.kind i in
        let latency =
          if k = k_load then
            Pf_cache.Hierarchy.data_latency st.hier (Array.unsafe_get st.addr i)
          else begin
            if k = k_store then
              ignore
                (Pf_cache.Hierarchy.data_latency st.hier
                   (Array.unsafe_get st.addr i));
            Array.unsafe_get st.trace.Pf_trace.Tracer.lat i
          end
        in
        let c = st.now + latency in
        Array.unsafe_set st.complete_c i c;
        Array.unsafe_set st.wheel (c land wheel_mask) c;
        wake_issued st i c;
        (* tracker: remember the speculative cross-task read so a
           later-retiring older store can catch it. Only unsynced
           loads of optimistic-level tasks that are not the oldest
           speculate on memory; a producer that already retired
           committed its write before this read. *)
        if
          st.use_tracker && k = k_load
          && Bytes.unsafe_get st.synced i <> '\001'
          && cross st i m
          && get_state st m <> s_retired
          && Array.unsafe_get st.addr i >= 0
          && Array.unsafe_get st.tstart i <> st.issue_oldest_start
        then begin
          let ot = owner_task st i in
          if ot.level = 2 then
            Mem_tracker.record_load st.tracker
              ~slot:(Array.unsafe_get st.owner_slot i)
              ~addr:(Array.unsafe_get st.addr i) ~pc:st.pc.(i)
        end;
        false
      end
    end

let issue st =
  (* wake the entries whose producer completes this cycle *)
  let b = bucket st st.now in
  let w = ref (Wakeq.pop st.wake b) in
  while !w >= 0 do
    Readyq.add_sorted st.scheduler !w;
    w := Wakeq.pop st.wake b
  done;
  (* the scheduler queue is ascending by construction, so this sweep
     visits candidates oldest-first without sorting *)
  st.issue_budget <- st.cfg.Config.fus;
  st.squashed_during_sweep <- false;
  st.issue_oldest_start <-
    (if st.live > 0 then (ring_at st 0).start_idx else max_int);
  Readyq.sweep st.scheduler st.issue_visit;
  (* a squash invalidates entries the sweep already decided to keep *)
  if st.squashed_during_sweep then Readyq.sweep st.scheduler st.keep_sched

(* ---- divert queue drain ---- *)
(* hold diverted work until its cross-task producers have completed
   and none of its producers is still diverted: the divert queue's
   whole purpose is to keep earlier-task-dependent chains out of the
   scheduler (Section 3.1), otherwise young tasks squat in the shared
   scheduler and strangle the oldest task *)
(* a cross-task consumer is released once its producer has begun
   executing — it reaches the scheduler just in time for wakeup;
   chains whose head is still parked stay in the FIFO *)
let blocked_gate st i p =
  (st.cfg.Config.divert_chains && get_state st p = s_divert)
  || (cross st i p && get_state st p < s_issued)

(* the first producer whose gate keeps divert entry [i] parked, or
   -1. A gate opens once: a cross-task producer's when it issues, a
   same-task chain head's when it leaves the divert queue; a squash
   evicts the consumer along with its producer. *)
let blocker st i =
  let r1 = Array.unsafe_get st.eff_src1 i in
  if r1 >= 0 && blocked_gate st i r1 then r1
  else
    let r2 = Array.unsafe_get st.eff_src2 i in
    if r2 >= 0 && blocked_gate st i r2 then r2
    else
      let m = Array.unsafe_get st.memsrc i in
      if
        Array.unsafe_get st.kind i = k_load
        && m >= 0
        && Bytes.unsafe_get st.synced i = '\001'
        && blocked_gate st i m
      then m
      else -1

(* [p] left the divert queue: its same-task divert waiters come after
   it in dispatch order, so they go back among the entries this sweep
   has yet to visit; cross-task and scheduler waiters wait on for
   [p]'s issue *)
let wake_released st p =
  let w = ref (Wakeq.first st.wake p) in
  while !w >= 0 do
    let i = !w in
    w := Wakeq.next st.wake i;
    if get_state st i = s_divert && not (cross st i p) then begin
      Wakeq.remove st.wake i;
      Readyq.insert st.divertq ~before:st.divert_before i
    end
  done

let drain_step st i =
  if get_state st i <> s_divert then false
  else
    let p = blocker st i in
    if p >= 0 then begin
      Wakeq.add st.wake p i;
      false
    end
    else if st.drain_budget = 0 then true
    else if
      (* the oldest task's entries may use the reserved scheduler
         band, otherwise its drain could deadlock behind younger
         consumers *)
      st.sched_count
      >= (if Array.unsafe_get st.tstart i = st.drain_oldest_start then
            st.cfg.Config.scheduler_entries
          else st.young_sched_limit)
    then true
    else begin
      set_state st i s_sched;
      Readyq.add_sorted st.scheduler i;
      st.sched_count <- st.sched_count + 1;
      st.divert_count <- st.divert_count - 1;
      st.drain_budget <- st.drain_budget - 1;
      st.progress <- true;
      cinc st.m_divert_released;
      wake_released st i;
      false
    end

let drain_divert st =
  (* FIFO (= dependence) order, so a ready chain drains up to [width]
     members in one cycle instead of rippling one per cycle *)
  st.drain_budget <- st.cfg.Config.width;
  st.drain_oldest_start <-
    (if st.live > 0 then (ring_at st 0).start_idx else max_int);
  Readyq.sweep st.divertq st.drain_visit

(* ---- dispatch ---- *)
(* an instruction diverts when a producer is in an earlier task and
   not yet issued, or is itself still parked in the divert queue
   (dependent chains follow their head into the FIFO) *)
let blocked_producer st i p = p >= 0 && blocked_gate st i p

let dispatch st =
  let cfg = st.cfg in
  let budget = ref cfg.Config.width in
  for k = 0 to st.live - 1 do
    let t = ring_at st k in
    let is_oldest = k = 0 in
    let rob_limit =
      if is_oldest then cfg.Config.rob_entries else st.young_rob_limit
    in
    let sched_limit =
      if is_oldest then cfg.Config.scheduler_entries else st.young_sched_limit
    in
    let continue_ = ref true in
    while !continue_ && !budget > 0 && t.dispatch_ptr < t.fetch_ptr do
      let i = t.dispatch_ptr in
      if get_state st i <> s_fetched then continue_ := false
      else if frontend_ready st i > st.now then continue_ := false
      else if st.rob_count >= rob_limit then continue_ := false
      else if (not is_oldest) && t.rob_used >= st.per_task_rob_cap then
        continue_ := false
      else begin
        let reg_divert =
          blocked_producer st i st.eff_src1.(i)
          || blocked_producer st i st.eff_src2.(i)
        in
        let mem_divert =
          if st.kind.(i) = k_load && cross st i st.memsrc.(i) then
            (* a conservative-level task synchronises every cross-task
               load; a doacross task force-synchronises near-iteration
               carries (producer within the sync-distance window of
               preceding tasks); optimistic tasks ask the store-set
               predictor *)
            if
              t.level = 1
              || (st.near_carry_sync
                 && st.memsrc.(i)
                    >= (ring_at st
                          (max 0 (k - cfg.Config.doacross_sync_distance)))
                         .start_idx)
              || Pf_predict.Store_sets.predict_sync st.store_sets
                   ~load_pc:st.pc.(i)
            then begin
              (* count each load the predictor chooses to synchronise
                 once, even if dispatch retries or a squash refetches *)
              if Bytes.get st.synced i <> '\001' then begin
                cinc st.m_load_syncs;
                if st.use_tracker || t.level = 1 then cinc st.m_mem_syncs
              end;
              Bytes.set st.synced i '\001';
              not (completed st st.memsrc.(i))
            end
            else begin
              Bytes.set st.synced i '\000';
              false
            end
          else false
        in
        if reg_divert || mem_divert then begin
          if st.divert_count < cfg.Config.divert_entries then begin
            set_state st i s_divert;
            Bytes.set_int32_ne st.dseq (4 * i) (Int32.of_int st.next_dseq);
            st.next_dseq <- st.next_dseq + 1;
            Readyq.push st.divertq i;
            st.divert_count <- st.divert_count + 1;
            st.rob_count <- st.rob_count + 1;
            t.rob_used <- t.rob_used + 1;
            cinc st.m_diverted;
            t.dispatch_ptr <- i + 1;
            decr budget;
            st.progress <- true
          end
          else continue_ := false (* divert queue full: stall this task *)
        end
        else if st.sched_count < sched_limit then begin
          set_state st i s_sched;
          Readyq.add_sorted st.scheduler i;
          st.sched_count <- st.sched_count + 1;
          st.rob_count <- st.rob_count + 1;
          t.rob_used <- t.rob_used + 1;
          t.dispatch_ptr <- i + 1;
          decr budget;
          st.progress <- true
        end
        else continue_ := false (* scheduler full *)
      end
    done
  done

(* ---- the Task Spawn Unit ---- *)
let insert_after st t t' =
  let pos = ref 0 in
  while ring_at st !pos != t do incr pos done;
  for k = st.live - 1 downto !pos + 1 do
    ring_set st (k + 1) (ring_at st k)
  done;
  ring_set st (!pos + 1) t';
  st.live <- st.live + 1

(* the first candidate that passes the checks starts a task at the next
   occurrence of its target after [i], taking the rest of [t]'s region *)
let rec try_spawn st t i = function
  | [] -> ()
  | (sp : Pf_core.Spawn_point.t) :: rest ->
      let j =
        Pf_trace.Occurrence.next_after st.input.occurrence
          ~pc:sp.Pf_core.Spawn_point.target_pc ~index:i
      in
      if
        j >= 0 && j < t.end_idx
        && j - i >= st.cfg.Config.min_task_instrs
        && j - i <= st.cfg.Config.max_spawn_distance
      then begin
        (* the Adaptive Flow Director: the safety filter's static
           verdict on the target region picks the speculation
           level of the would-be task *)
        let lvl =
          match st.input.speculation with
          | Safety_levels f ->
              Pf_core.Safety_filter.code f ~at_pc:sp.Pf_core.Spawn_point.at_pc
          | Speculate _ | Near_carry_sync -> 2
        in
        if lvl = 0 then begin
          cinc st.m_level_bypass;
          try_spawn st t i rest
        end
        else if profitable st sp.Pf_core.Spawn_point.at_pc then begin
          let t' =
            make_task st.slot_task st.next_task_id (free_slot st 0) j t.end_idx
              (st.now + st.cfg.Config.spawn_latency)
              Sink.r_spawn_overhead sp.Pf_core.Spawn_point.at_pc lvl
              t.history t.ras
          in
          (match st.input.speculation with
          | Safety_levels _ ->
              cinc
                (if lvl = 1 then st.m_level_conservative
                 else st.m_level_optimistic)
          | Speculate _ | Near_carry_sync -> ());
          let sid = sp_id sp.Pf_core.Spawn_point.at_pc in
          let spawned = st.sc.Scratch.sp_spawned in
          spawned.(sid) <- spawned.(sid) + 1;
          st.next_task_id <- st.next_task_id + 1;
          t.end_idx <- j;
          insert_after st t t';
          cinc st.m_tasks;
          st.progress <- true;
          if st.live > st.max_live then st.max_live <- st.live;
          let c = cat_code sp.Pf_core.Spawn_point.category in
          st.cat_count.(c) <- st.cat_count.(c) + 1;
          if st.observe then
            st.sink.Sink.on_task_start ~cycle:st.now ~slot:t'.slot ~task:t'.id
              ~parent_slot:t.slot ~at_pc:sp.Pf_core.Spawn_point.at_pc
        end
        else try_spawn st t i rest
      end
      else try_spawn st t i rest

(* the static address after instruction [i]: a procedure fall-through
   after a call, a loop fall-through after a backward branch *)
let fall_through st i category =
  [ { Pf_core.Spawn_point.at_pc = st.pc.(i); target_pc = st.pc.(i) + bpi;
      category } ]

let spawn_candidates_at st i =
  let static = Pf_core.Hint_cache.find st.input.hints ~pc:st.pc.(i) in
  let dyn =
    match st.dynamic with
    | No_dynamic -> []
    | Reconvergence -> (
        match st.kind.(i) with
        | k when k = k_branch || k = k_ind_jump -> (
            match
              Pf_predict.Reconvergence.predict st.recpred ~branch_pc:st.pc.(i)
            with
            | Some r ->
                [ { Pf_core.Spawn_point.at_pc = st.pc.(i); target_pc = r;
                    category = Pf_core.Spawn_point.Other } ]
            | None -> [])
        | k when k = k_call || k = k_ind_call ->
            fall_through st i Pf_core.Spawn_point.Proc_ft
        | _ -> [])
    | Dmt_heuristics -> (
        (* Dynamic Multi-Threading heuristics (Akkary and Driscoll,
           Section 5 of the paper): the static address after a
           backward branch approximates the loop fall-through; the
           return address of a call is the procedure fall-through. *)
        match st.kind.(i) with
        | k when k = k_branch ->
            if Bytes.get st.trace.Pf_trace.Tracer.backward i = '\001' then
              fall_through st i Pf_core.Spawn_point.Loop_ft
            else []
        | k when k = k_call || k = k_ind_call ->
            fall_through st i Pf_core.Spawn_point.Proc_ft
        | _ -> [])
  in
  (* the common case — no dynamic candidate — reuses the hint cache's
     stored list instead of copying it through (@) *)
  match static, dyn with
  | s, [] -> s
  | [], d -> d
  | s, d -> s @ d

(* The Task Spawn Unit watches the fetch stream. For conditional
   branches the spawn happens after the outcome has been shifted into
   the history, so the control-equivalent task inherits a history that
   includes the branch it jumps over; for calls it happens before the
   RAS push, since the spawned task lives at the return point where
   that entry has already been consumed. Only the tail task spawns, one
   successor each (Section 3.2) — unless split spawning (the paper's
   Section 6 future work) is on, in which case any task may split its
   own region so that nested hammocks can all be spawned past. *)
let spawn_at st t i =
  match spawn_candidates_at st i with
  | [] -> ()
  | cands ->
      if
        (ring_at st (st.live - 1) == t || st.cfg.Config.split_spawning)
        && st.live < st.cfg.Config.max_tasks
      then try_spawn st t i cands

(* ---- fetch ---- *)
let fetchable st t =
  t.blocked_branch < 0 && t.stall_until <= st.now && t.fetch_ptr < t.end_idx
  && t.fetch_ptr - t.dispatch_ptr < st.cfg.Config.fetch_buffer

(* fetch-priority order for younger tasks: fewest in-flight first,
   ties broken oldest-first (start_idx is unique per live task, so the
   order is total and deterministic) *)
let task_lt a b =
  a.inflight < b.inflight
  || (a.inflight = b.inflight && a.start_idx < b.start_idx)

let fetch st =
  let cfg = st.cfg and elig = st.elig and trace = st.trace in
  (* unblock tasks whose mispredicted branch has resolved *)
  for k = 0 to st.live - 1 do
    let t = ring_at st k in
    let b = t.blocked_branch in
    if b >= 0 && completed st b && st.now >= mispredict_resume st b then
      t.blocked_branch <- -1
  done;
  let n_elig = ref 0 in
  for k = 0 to st.live - 1 do
    let t = ring_at st k in
    if fetchable st t then begin
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
    while !continue_ && !budget > 0 && fetchable st t do
      let i = t.fetch_ptr in
      let pc = st.pc.(i) in
      (* I-cache access on line change *)
      let line = pc land Config.l1i_line_mask in
      if line <> t.last_line then begin
        t.last_line <- line;
        let latency = Pf_cache.Hierarchy.fetch_latency st.hier pc in
        if latency > 0 then begin
          (* a miss stalls this task but leaves the cycle live: when
             [fetch_tasks_per_cycle] chose only tasks that miss, an
             unchosen task is still fetchable next cycle, a gate
             [next_event] does not track *)
          st.progress <- true;
          t.stall_until <- st.now + latency;
          t.stall_reason <- Sink.r_icache;
          continue_ := false
        end
      end;
      if !continue_ then begin
        set_state st i s_fetched;
        st.fetch_c.(i) <- st.now;
        st.tstart.(i) <- t.start_idx;
        st.owner_slot.(i) <- t.slot;
        st.progress <- true;
        (* control-equivalent sp: cross-task sp sources are ready.
           [eff_mutable] (not just [sp_hint]) so the guard provably
           never writes through an aliased window *)
        if st.eff_mutable then begin
          if st.eff_src1.(i) >= 0 && st.eff_src1.(i) < t.start_idx
             && Bytes.get trace.Pf_trace.Tracer.src1_sp i = '\001'
          then st.eff_src1.(i) <- -1;
          if st.eff_src2.(i) >= 0 && st.eff_src2.(i) < t.start_idx
             && Bytes.get trace.Pf_trace.Tracer.src2_sp i = '\001'
          then st.eff_src2.(i) <- -1
        end;
        t.inflight <- t.inflight + 1;
        t.fetch_ptr <- i + 1;
        decr budget;
        let kind = st.kind.(i) in
        if kind <> k_branch && kind <> k_call then spawn_at st t i;
        (* control-flow prediction *)
        (match kind with
        | k when k = k_branch ->
            let taken = trace.Pf_trace.Tracer.taken.(i) in
            let history =
              if cfg.Config.shared_history then st.shared_hist else t.history
            in
            let predicted =
              Pf_predict.Gshare.predict_with st.gshare ~history ~pc
            in
            Pf_predict.Gshare.update_with st.gshare ~history ~pc ~taken;
            let next = Pf_predict.Gshare.shift ~history ~taken in
            if cfg.Config.shared_history then st.shared_hist <- next
            else t.history <- next;
            spawn_at st t i;
            if predicted <> taken then begin
              cinc st.m_branch_mp;
              t.blocked_branch <- i;
              continue_ := false
            end
            else if taken then continue_ := false
              (* one taken branch per task per cycle *)
        | k when k = k_jump -> continue_ := false
        | k when k = k_call ->
            spawn_at st t i;
            Pf_predict.Ras.push t.ras (pc + bpi);
            continue_ := false
        | k when k = k_return ->
            let target = Pf_predict.Ras.pop t.ras in
            if target < 0 || target <> trace.Pf_trace.Tracer.next_pc.(i)
            then begin
              cinc st.m_ret_mp;
              t.blocked_branch <- i
            end;
            continue_ := false
        | k when k = k_ind_jump || k = k_ind_call ->
            if k = k_ind_call then Pf_predict.Ras.push t.ras (pc + bpi);
            let next_pc = trace.Pf_trace.Tracer.next_pc.(i) in
            let predicted = Pf_predict.Indirect.predict st.indirect ~pc in
            Pf_predict.Indirect.update st.indirect ~pc ~target:next_pc;
            if predicted < 0 || predicted <> next_pc then begin
              cinc st.m_ind_mp;
              t.blocked_branch <- i
            end;
            continue_ := false
        | _ -> ())
      end
    done
  done

(* ---- self-check: validate the resource counters against a recount
   of the pipeline state (the [Self_checked] mode; used by tests) ---- *)
let self_check st =
  let n = st.n in
  let fail fmt =
    Printf.ksprintf (fun m -> failwith ("Engine self-check failed: " ^ m)) fmt
  in
  (* the dependence rule: an instruction issues only once every producer
     it waited for has completed, so each completed at least ℓ(i) cycles
     before it did: the flat latency for a non-load (exact), the L1D hit
     latency for a load (a lower bound). A speculative load whose
     producing store has not completed squashes instead of issuing, and
     sp-hint-patched sources are -1. *)
  let l1d_hit =
    Pf_cache.Hierarchy.default_params.Pf_cache.Hierarchy.l1d_hit_latency
  in
  let rob = ref 0 and sched = ref 0 and divert = ref 0 in
  for i = 0 to n - 1 do
    let s = get_state st i in
    if s = s_divert || s = s_sched || s = s_issued then incr rob;
    if s = s_sched then incr sched;
    if s = s_divert then incr divert;
    if s = s_issued || s = s_retired then begin
      let load = st.kind.(i) = k_load in
      let lat = if load then l1d_hit else st.trace.Pf_trace.Tracer.lat.(i) in
      let bound = st.complete_c.(i) - lat in
      let check p =
        if p >= 0 && st.complete_c.(p) > bound then
          fail "instruction %d completes at %d, its producer %d at %d" i
            st.complete_c.(i) p st.complete_c.(p)
      in
      check st.eff_src1.(i);
      check st.eff_src2.(i);
      if load then check st.memsrc.(i)
    end
  done;
  if !rob <> st.rob_count || !sched <> st.sched_count
     || !divert <> st.divert_count
  then
    fail "cycle %d: rob %d/%d sched %d/%d divert %d/%d" st.now !rob
      st.rob_count !sched st.sched_count !divert st.divert_count;
  for i = 0 to st.retire_ptr - 1 do
    if get_state st i <> s_retired then
      fail "unretired instruction %d below the retire pointer %d" i
        st.retire_ptr
  done;
  (* the wakeup invariant: every scheduler and divert entry is awake in
     its queue (the divert queue in dispatch order) or asleep on
     exactly one list whose wake event has not fired, so no cycle in
     which it could act passes without a visit *)
  Wakeq.check st.wake;
  let seen = Bytes.make n '\000' in
  let see i =
    if Bytes.get seen i <> '\000' then fail "entry %d queued twice" i;
    Bytes.set seen i '\001'
  in
  Readyq.iter st.scheduler (fun i ->
      if get_state st i <> s_sched then fail "scheduler holds entry %d" i;
      see i);
  let last = ref (-1) in
  Readyq.iter st.divertq (fun i ->
      if get_state st i <> s_divert then fail "divert queue holds entry %d" i;
      if !last >= 0 && not (divert_before st !last i) then
        fail "divert entry %d out of dispatch order" i;
      last := i;
      see i);
  let waits_for i p =
    p = st.eff_src1.(i) || p = st.eff_src2.(i) || p = st.memsrc.(i)
  in
  for p = 0 to n - 1 do
    let w = ref (Wakeq.first st.wake p) in
    while !w >= 0 do
      let i = !w in
      let s = get_state st i in
      let asleep =
        waits_for i p
        &&
        if s = s_sched then get_state st p < s_issued
        else
          s = s_divert
          &&
          if cross st i p then get_state st p < s_issued
          else st.cfg.Config.divert_chains && get_state st p = s_divert
      in
      if not asleep then
        fail "entry %d (state %d) sleeps on producer %d (state %d)" i s p
          (get_state st p);
      see i;
      w := Wakeq.next st.wake i
    done
  done;
  for b = 0 to wheel_size - 1 do
    let w = ref (Wakeq.first st.wake (n + b)) in
    while !w >= 0 do
      let i = !w in
      let pending p =
        p >= 0 && get_state st p = s_issued
        && st.complete_c.(p) land wheel_mask = b
        && st.complete_c.(p) >= st.now
        && st.complete_c.(p) < st.now + wheel_size
      in
      if not (get_state st i = s_sched
              && (pending st.eff_src1.(i) || pending st.eff_src2.(i)
                  || pending st.memsrc.(i)))
      then fail "entry %d sleeps in bucket %d with no completion due" i b;
      see i;
      w := Wakeq.next st.wake i
    done
  done;
  for i = 0 to n - 1 do
    let s = get_state st i in
    if (s = s_sched || s = s_divert) && Bytes.get seen i = '\000' then
      fail "entry %d (state %d) neither queued nor asleep" i s
  done;
  let cap = Array.length st.ring in
  if st.live < 0 || st.live > cap then fail "live-task counter out of range";
  (* every live ring entry must own its slot (the ring replaced the
     task list; this is the moral equivalent of the old
     List.length !order = !live check) *)
  for k = 0 to st.live - 1 do
    let t = ring_at st k in
    match st.slot_task.(t.slot) with
    | Some t' when t' == t -> ()
    | _ -> fail "ring/slot table out of sync"
  done;
  (* task regions must partition the unretired window in order *)
  if st.live > 0 then begin
    let prev_end = ref (ring_at st 0).start_idx in
    for k = 0 to st.live - 1 do
      let t = ring_at st k in
      if t.start_idx <> !prev_end then fail "task regions not contiguous";
      prev_end := t.end_idx
    done
  end;
  (* the memory tracker's per-slot live count must agree with its
     storage, and a slot with no task must hold no CAM entries — a
     squash or task end that forgot reset_slot would leak stale loads
     into the next task occupying the slot *)
  if st.use_tracker then
    for s = 0 to cap - 1 do
      let lv = Mem_tracker.live st.tracker ~slot:s in
      let rc = Mem_tracker.recount st.tracker ~slot:s in
      if lv <> rc then fail "mem tracker slot %d count %d/%d" s lv rc;
      if st.slot_task.(s) = None && lv <> 0 then
        fail "mem tracker leak in freed slot %d (%d entries)" s lv
    done

(* ---- cycle accounting ----
   [classify] attributes a (cycle, slot) pair to exactly one Sink reason
   code, inspected at the top of the cycle before any stage mutates
   state. Priority: an explicit stall (i-cache / squash recovery / spawn
   wait) wins, then an unresolved mispredict; otherwise the oldest
   not-yet-complete instruction of the task names the bottleneck —
   parked in the divert queue, an issued load in the memory hierarchy,
   or ordinary in-flight work (base). A task with nothing incomplete
   is doing base work while it still has fetching left, and idle when
   its whole region is done and it merely waits to retire. [obs_ptr]
   amortises the scan: it only moves forward past completed
   instructions (reset on squash), so accounting stays O(1) per cycle
   on average and touches no timing state. *)
let classify st t =
  if t.stall_until > st.now then t.stall_reason
  else if t.blocked_branch >= 0 then Sink.r_branch_mispredict
  else begin
    let p = ref t.obs_ptr in
    while !p < t.fetch_ptr && completed st !p do incr p done;
    t.obs_ptr <- !p;
    if !p >= t.fetch_ptr then
      if t.fetch_ptr >= t.end_idx then Sink.r_idle else Sink.r_base
    else
      let s = get_state st !p in
      if s = s_divert then Sink.r_divert_wait
      else if s = s_issued && st.kind.(!p) = k_load then Sink.r_memory
      else Sink.r_base
  end

(* Charge cycles [now, now + k) to the head-of-ROB stall reason and,
   with a sink attached, each slot to its [classify] reason, every slot
   of a cycle before the next cycle. The driver charges one cycle at
   the top of each simulated cycle, and a skipped stretch after the
   dead cycle before it: no completion, unblock or stall edge lies
   strictly inside that stretch (that is what [next_event] computed),
   so the state that classifies its first cycle classifies them all. *)
let account st k =
  let i = st.retire_ptr in
  if not (completed st i) then Counters.add st.stall.(get_state st i) k;
  if st.observe then begin
    let slots = Array.length st.slot_task in
    for s = 0 to slots - 1 do
      st.slot_reason.(s) <-
        (match st.slot_task.(s) with
        | Some t -> classify st t
        | None -> Sink.r_idle)
    done;
    for c = st.now to st.now + k - 1 do
      for s = 0 to slots - 1 do
        st.sink.Sink.on_slot_cycle ~cycle:c ~slot:s ~reason:st.slot_reason.(s)
      done
    done
  end

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
   before it is provably identical to the one just simulated. *)
let next_event st =
  let now = st.now in
  let best = ref max_int in
  for k = 0 to st.live - 1 do
    let t = ring_at st k in
    if t.stall_until >= now && t.stall_until < !best then
      best := t.stall_until;
    let b = t.blocked_branch in
    (if b >= 0 && completed st b then begin
       let r = mispredict_resume st b in
       if r >= now && r < !best then best := r
     end);
    let d = t.dispatch_ptr in
    if d < t.fetch_ptr && get_state st d = s_fetched then begin
      let r = frontend_ready st d in
      if r >= now && r < !best then best := r
    end
  done;
  (* every pending completion is < now + wheel_size (the assertion at
     [wheel_size]), so scanning the wheel up to the earliest other gate
     finds the earliest completion exactly *)
  let limit = if !best < now + wheel_size then !best else now + wheel_size in
  let c = ref now in
  let found = ref false in
  while (not !found) && !c < limit do
    if st.wheel.(!c land wheel_mask) = !c then found := true else incr c
  done;
  if !found then !c else !best

(* move the clock to cycle [c], self-checking every 64 cycles in
   [Self_checked] mode and failing once the watchdog has passed *)
let advance st c =
  st.now <- c;
  if st.input.mode = Self_checked && c land 63 = 0 then self_check st;
  if c > st.watchdog then
    failwith
      (Printf.sprintf "Engine: watchdog at cycle %d (retired %d of %d)" c
         st.retire_ptr st.n)

(* ---- building the state, and reading it out ---- *)
let init input =
  let cfg = input.config in
  Result.iter_error
    (fun msg -> invalid_arg ("Engine.simulate: " ^ msg))
    (Config.check cfg);
  let reg =
    match input.counters with
    | Some r -> r
    | None -> Counters.create ()
  in
  (* registration order is the registry's dump order, which run-cache
     entries and documents pin, so the counters are made one by one *)
  let cnt = Counters.make reg in
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
  let trace = input.trace in
  let n = trace.Pf_trace.Tracer.n in
  if n = 0 then invalid_arg "Engine: empty trace";
  let pc = trace.Pf_trace.Tracer.pc in
  let eff_mutable = cfg.Config.sp_hint && cfg.Config.max_tasks > 1 in
  let sc = Scratch.checkout n in
  let eff_src src copy =
    if eff_mutable then begin
      Array.blit src 0 copy 0 n;
      copy
    end
    else src
  in
  let n_sp =
    let max_pc = ref 0 in
    for i = 0 to n - 1 do
      if pc.(i) > !max_pc then max_pc := pc.(i)
    done;
    (!max_pc / bpi) + 1
  in
  Scratch.ensure_sp sc n_sp;
  let cap = cfg.Config.max_tasks in
  let slot_task = Array.make cap None in
  let initial_task =
    make_task slot_task 0 0 0 n 0 Sink.r_base (-1) 2
      Pf_predict.Gshare.initial_history
      (Pf_predict.Ras.create ~depth:cfg.Config.ras_depth ())
  in
  let rec st =
    { input; cfg; n; sc;
      sink = input.sink;
      observe = not (Sink.is_null input.sink);
      watchdog = cfg.Config.max_cycles_per_instr * n;
      trace; pc;
      kind = trace.Pf_trace.Tracer.kind;
      addr = trace.Pf_trace.Tracer.addr;
      memsrc = trace.Pf_trace.Tracer.memsrc;
      eff_mutable;
      eff_src1 = eff_src trace.Pf_trace.Tracer.src1 sc.Scratch.src1;
      eff_src2 = eff_src trace.Pf_trace.Tracer.src2 sc.Scratch.src2;
      state = sc.Scratch.state;
      fetch_c = sc.Scratch.fetch_c;
      complete_c = sc.Scratch.complete_c;
      synced = sc.Scratch.synced;
      tstart = sc.Scratch.tstart;
      owner_slot = sc.Scratch.owner_slot;
      gshare = Pf_predict.Gshare.create ();
      shared_hist = Pf_predict.Gshare.initial_history;
      indirect = Pf_predict.Indirect.create ();
      store_sets =
        Pf_predict.Store_sets.create
          ~sync_threshold:cfg.Config.mem_sync_threshold ();
      recpred = Pf_predict.Reconvergence.create ();
      hier = Pf_cache.Hierarchy.create ();
      dynamic =
        (match input.speculation with Speculate d -> d | _ -> No_dynamic);
      near_carry_sync = input.speculation = Near_carry_sync;
      use_tracker = cfg.Config.mem_tracker;
      tracker =
        (if cfg.Config.mem_tracker then
           Mem_tracker.create ~max_tasks:cap
             ~entries:cfg.Config.tracker_entries
         else Mem_tracker.create ~max_tasks:1 ~entries:1);
      slot_task;
      ring = Array.make cap initial_task;
      head = 0;
      live = 1;
      next_task_id = 1;
      elig = Array.make cap initial_task;
      best_frac = 0.;
      cat_count = Array.make 5 0;
      max_live = 1;
      rob_count = 0;
      sched_count = 0;
      divert_count = 0;
      young_rob_limit =
        (if cfg.Config.rob_shares then cfg.Config.rob_entries * 3 / 4
         else cfg.Config.rob_entries - (2 * cfg.Config.width));
      per_task_rob_cap =
        (if cfg.Config.rob_shares then cfg.Config.rob_entries / 4
         else cfg.Config.rob_entries);
      young_sched_limit = cfg.Config.scheduler_entries - cfg.Config.width;
      scheduler = Readyq.create ~capacity:cfg.Config.scheduler_entries ();
      divertq = Readyq.create ~capacity:cfg.Config.divert_entries ();
      wake = sc.Scratch.wake;
      dseq = sc.Scratch.dseq;
      next_dseq = 0;
      now = 0;
      retire_ptr = 0;
      progress = false;
      wheel = Array.make wheel_size (-1);
      issue_budget = 0;
      squashed_during_sweep = false;
      issue_oldest_start = max_int;
      drain_budget = 0;
      drain_oldest_start = max_int;
      slot_reason = Array.make cap Sink.r_idle;
      m_branch_mp; m_ind_mp; m_ret_mp; m_squashes; m_squashed; m_diverted;
      m_tasks; m_spawn_suppressed; m_divert_released; m_load_syncs;
      m_mem_violations; m_mem_syncs; m_level_bypass; m_level_conservative;
      m_level_optimistic;
      stall =
        [| m_stall_frontend; m_stall_frontend; m_stall_divert; m_stall_sched;
           m_stall_exec |];
      issue_visit = (fun i -> issue_step st i);
      drain_visit = (fun i -> drain_step st i);
      keep_sched = (fun i -> get_state st i = s_sched);
      keep_divert = (fun i -> get_state st i = s_divert);
      divert_before = (fun a b -> divert_before st a b) }
  in
  st

let metrics st =
  { Metrics.instructions = st.n;
    cycles = st.now;
    branch_mispredicts = cv st.m_branch_mp;
    indirect_mispredicts = cv st.m_ind_mp;
    return_mispredicts = cv st.m_ret_mp;
    spawns =
      List.filter_map
        (fun cat ->
          let v = st.cat_count.(cat_code cat) in
          if v > 0 then Some (cat, v) else None)
        spawn_order;
    squashes = cv st.m_squashes;
    squashed_instrs = cv st.m_squashed;
    diverted = cv st.m_diverted;
    tasks_spawned = cv st.m_tasks;
    max_live_tasks = st.max_live;
    l1i_misses = Pf_cache.Hierarchy.l1i_misses st.hier;
    l1d_misses = Pf_cache.Hierarchy.l1d_misses st.hier;
    l2_misses = Pf_cache.Hierarchy.l2_misses st.hier;
    stall_frontend = cv st.stall.(s_none);
    stall_divert = cv st.stall.(s_divert);
    stall_sched = cv st.stall.(s_sched);
    stall_exec = cv st.stall.(s_issued) }

(* ---- the cycle driver ----
   Each cycle is charged to its stall reasons, then runs the stages from
   the back of the pipeline to the front, so each stage takes what the
   stage before it produced in an earlier cycle. A cycle in which no
   stage made progress is followed by a jump over every cycle before
   [next_event], unless the run is [Stepped]. *)
let simulate input =
  let st = init input in
  let skip = input.mode <> Stepped in
  if st.observe then
    st.sink.Sink.on_task_start ~cycle:0 ~slot:0 ~task:0 ~parent_slot:(-1)
      ~at_pc:(-1);
  while st.retire_ptr < st.n do
    account st 1;
    st.progress <- false;
    retire st;
    issue st;
    drain_divert st;
    dispatch st;
    fetch st;
    advance st (st.now + 1);
    if skip && (not st.progress) && st.retire_ptr < st.n then begin
      let e = next_event st in
      let target = if e > st.watchdog + 1 then st.watchdog + 1 else e in
      if target > st.now then begin
        account st (target - st.now);
        advance st target
      end
    end
  done;
  Scratch.checkin st.sc;
  metrics st
