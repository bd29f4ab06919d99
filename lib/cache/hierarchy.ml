type params = {
  l1i_size : int;
  l1i_assoc : int;
  l1i_line : int;
  l1d_size : int;
  l1d_assoc : int;
  l1d_line : int;
  l2_size : int;
  l2_assoc : int;
  l2_line : int;
  l1_miss_penalty : int;
  l2_miss_penalty : int;
  l1d_hit_latency : int;
}

let default_params =
  { l1i_size = 8 * 1024; l1i_assoc = 2; l1i_line = 128;
    l1d_size = 16 * 1024; l1d_assoc = 4; l1d_line = 64;
    l2_size = 512 * 1024; l2_assoc = 8; l2_line = 128;
    l1_miss_penalty = 10; l2_miss_penalty = 100; l1d_hit_latency = 2 }

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
}

let p = default_params

let create () =
  { l1i = Cache.create ~size_bytes:p.l1i_size ~assoc:p.l1i_assoc ~line_bytes:p.l1i_line ();
    l1d = Cache.create ~size_bytes:p.l1d_size ~assoc:p.l1d_assoc ~line_bytes:p.l1d_line ();
    l2 = Cache.create ~size_bytes:p.l2_size ~assoc:p.l2_assoc ~line_bytes:p.l2_line () }

let fetch_latency t pc =
  if Cache.access t.l1i pc then 0
  else if Cache.access t.l2 pc then p.l1_miss_penalty
  else p.l1_miss_penalty + p.l2_miss_penalty

let data_latency t addr =
  if Cache.access t.l1d addr then p.l1d_hit_latency
  else if Cache.access t.l2 addr then p.l1d_hit_latency + p.l1_miss_penalty
  else p.l1d_hit_latency + p.l1_miss_penalty + p.l2_miss_penalty

let l1i_misses t = Cache.misses t.l1i
let l1d_misses t = Cache.misses t.l1d
let l2_misses t = Cache.misses t.l2
