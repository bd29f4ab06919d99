(* One row of reason counts per task slot, grown on demand: the sink
   cannot know max_tasks up front and must not depend on the engine to
   learn it, so the first event from a new slot widens the matrix. *)
type t = {
  mutable rows : int array array; (* slot -> counts indexed by reason code *)
  mutable slots : int;            (* 1 + highest slot observed *)
}

let create () = { rows = [||]; slots = 0 }

let ensure t slot =
  let cap = Array.length t.rows in
  if slot >= cap then begin
    let cap' = max (slot + 1) (max 4 (2 * cap)) in
    let rows' = Array.init cap' (fun i ->
        if i < cap then t.rows.(i) else Array.make Sink.n_reasons 0)
    in
    t.rows <- rows'
  end;
  if slot >= t.slots then t.slots <- slot + 1

let sink t =
  { Sink.null with
    on_slot_cycle =
      (fun ~cycle:_ ~slot ~reason ->
        ensure t slot;
        let row = t.rows.(slot) in
        row.(reason) <- row.(reason) + 1) }

let slots t = t.slots

let row t s =
  if s < 0 || s >= t.slots then
    invalid_arg (Printf.sprintf "Cpi_stack.row: slot %d out of range" s);
  Array.copy t.rows.(s)

let sum = Array.fold_left ( + ) 0

let slot_total t s =
  if s < 0 || s >= t.slots then
    invalid_arg (Printf.sprintf "Cpi_stack.slot_total: slot %d out of range" s);
  sum t.rows.(s)

let total t =
  let acc = ref 0 in
  for s = 0 to t.slots - 1 do acc := !acc + sum t.rows.(s) done;
  !acc

let aggregate t =
  let agg = Array.make Sink.n_reasons 0 in
  for s = 0 to t.slots - 1 do
    let row = t.rows.(s) in
    for r = 0 to Sink.n_reasons - 1 do agg.(r) <- agg.(r) + row.(r) done
  done;
  agg

(* Short column labels; the long names are the schema, these are the
   table. Kept in reason-code order. *)
let short_names =
  [| "base"; "icache"; "br_mp"; "divert"; "memory"; "squash"; "spawn";
     "idle"; "mem_viol" |]

let short_name r =
  if r < 0 || r >= Sink.n_reasons then
    invalid_arg (Printf.sprintf "Cpi_stack.short_name: bad code %d" r);
  short_names.(r)

let pp fmt t =
  let w = 9 in
  Format.fprintf fmt "%-6s" "slot";
  Array.iter (fun n -> Format.fprintf fmt " %*s" w n) short_names;
  Format.fprintf fmt " %*s@," w "cycles";
  for s = 0 to t.slots - 1 do
    Format.fprintf fmt "%-6d" s;
    Array.iter (fun c -> Format.fprintf fmt " %*d" w c) t.rows.(s);
    Format.fprintf fmt " %*d@," w (sum t.rows.(s))
  done;
  let agg = aggregate t in
  let tot = max 1 (sum agg) in
  Format.fprintf fmt "%-6s" "all%";
  Array.iter
    (fun c -> Format.fprintf fmt " %*.1f" w (100.0 *. float c /. float tot))
    agg;
  Format.fprintf fmt " %*d@," w (sum agg)
