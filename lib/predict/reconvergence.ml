(* Monitor window (same-depth instructions examined before giving up),
   confirmations required before predicting, and the bound on
   concurrently open monitors. *)
let window = 256
let min_confidence = 2
let max_monitors = 64

type entry = {
  branch_pc : int;
  mutable cand : int;        (* current reconvergence candidate *)
  mutable confidence : int;
  mutable monitored : bool;  (* a monitor for this branch is open *)
}

(* The open monitors live in three preallocated arrays, slots
   [0 .. n_monitors-1], compacted in place as monitors close, so running
   and opening monitors allocates nothing. Each monitor touches only its own
   entry (an entry has at most one open monitor), so the order in which
   they are run never changes a result. *)
type t = {
  entries : (int, entry) Hashtbl.t;
  mon_entry : entry array;
  mon_depth0 : int array;
  mon_remaining : int array;
  mutable n_monitors : int;
  mutable depth : int;
}

let create () =
  let unused = { branch_pc = -1; cand = 0; confidence = 0; monitored = false } in
  { entries = Hashtbl.create 256;
    mon_entry = Array.make max_monitors unused;
    mon_depth0 = Array.make max_monitors 0;
    mon_remaining = Array.make max_monitors 0;
    n_monitors = 0;
    depth = 0 }

(* Run monitor [k] over the retired [pc]: the decisive event is the
   first retired PC at-or-above the candidate at the branch's call
   depth. Equal confirms the candidate, higher pushes it upward (the
   true join lies on every path, so it can never be skipped). Returns
   whether the monitor stays open. *)
let keep t pc k =
  let e = t.mon_entry.(k) in
  let depth0 = t.mon_depth0.(k) in
  if t.depth > depth0 then true (* inside a call: skip *)
  else if t.depth < depth0 then begin
    (* returned past the branch before reconverging: inconclusive *)
    e.monitored <- false;
    false
  end
  else if pc = e.cand then begin
    e.confidence <- min 8 (e.confidence + 1);
    e.monitored <- false;
    false
  end
  else if pc > e.cand then begin
    e.cand <- pc;
    e.confidence <- 0;
    e.monitored <- false;
    false
  end
  else begin
    t.mon_remaining.(k) <- t.mon_remaining.(k) - 1;
    if t.mon_remaining.(k) <= 0 then begin
      e.monitored <- false;
      false
    end
    else true
  end

let retire t ~pc ~kind =
  (* 1. run every open monitor over this instruction *)
  let w = ref 0 in
  for k = 0 to t.n_monitors - 1 do
    if keep t pc k then begin
      if !w <> k then begin
        t.mon_entry.(!w) <- t.mon_entry.(k);
        t.mon_depth0.(!w) <- t.mon_depth0.(k);
        t.mon_remaining.(!w) <- t.mon_remaining.(k)
      end;
      incr w
    end
  done;
  t.n_monitors <- !w;
  (* 2. maintain the call-depth counter *)
  if kind = Pf_isa.Instr.k_call || kind = Pf_isa.Instr.k_ind_call then
    t.depth <- t.depth + 1
  else if kind = Pf_isa.Instr.k_return then t.depth <- max 0 (t.depth - 1);
  (* 3. open a monitor for a retiring conditional branch or indirect
     jump (Collins et al. also predict indirect-jump reconvergence) *)
  if kind = Pf_isa.Instr.k_branch || kind = Pf_isa.Instr.k_ind_jump then begin
    let e =
      match Hashtbl.find t.entries pc with
      | e -> e
      | exception Not_found ->
          let e =
            { branch_pc = pc;
              cand = pc + Pf_isa.Instr.bytes_per_instr;
              confidence = 0;
              monitored = false }
          in
          Hashtbl.replace t.entries pc e;
          e
    in
    if (not e.monitored) && t.n_monitors < max_monitors then begin
      e.monitored <- true;
      let k = t.n_monitors in
      t.mon_entry.(k) <- e;
      t.mon_depth0.(k) <- t.depth;
      t.mon_remaining.(k) <- window;
      t.n_monitors <- k + 1
    end
  end

let predict t ~branch_pc =
  match Hashtbl.find_opt t.entries branch_pc with
  | Some e when e.confidence >= min_confidence -> Some e.cand
  | Some _ | None -> None

let learned_branches t =
  Hashtbl.fold
    (fun _ (e : entry) acc ->
      if e.confidence >= min_confidence then acc + 1 else acc)
    t.entries 0

let observed_branches t = Hashtbl.length t.entries
