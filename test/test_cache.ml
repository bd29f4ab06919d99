(* Tests for pf_cache. *)

open Pf_cache

let case name f = Alcotest.test_case name `Quick f

let test_cold_miss_then_hit () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x1000);
  Alcotest.(check bool) "now hits" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x103f);
  Alcotest.(check bool) "next line misses" false (Cache.access c 0x1040);
  Alcotest.(check int) "miss count" 2 (Cache.misses c);
  ignore (Cache.access c 0x1040);
  Alcotest.(check int) "hits not counted" 2 (Cache.misses c)

let test_lru_eviction () =
  (* 2-way, line 64, 1024 bytes -> 8 sets; three lines mapping to set 0 *)
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 () in
  let a = 0 and b = 512 and d = 1024 in
  ignore (Cache.access c a);
  ignore (Cache.access c b);
  ignore (Cache.access c a); (* a most recent; b is LRU *)
  ignore (Cache.access c d); (* evicts b *)
  Alcotest.(check bool) "a kept" true (Cache.probe c a);
  Alcotest.(check bool) "b evicted" false (Cache.probe c b);
  Alcotest.(check bool) "d present" true (Cache.probe c d)

let test_probe_no_side_effect () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:64 () in
  Alcotest.(check bool) "probe misses" false (Cache.probe c 0x40);
  Alcotest.(check bool) "probe did not fill" false (Cache.probe c 0x40);
  Alcotest.(check int) "probe not counted" 0 (Cache.misses c)

let test_bad_geometry_rejected () =
  (try
     ignore (Cache.create ~size_bytes:1000 ~assoc:2 ~line_bytes:64 ());
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ());
  try
    ignore (Cache.create ~size_bytes:1024 ~assoc:2 ~line_bytes:48 ());
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

(* Property: hit rate of repeated accesses to a working set smaller than
   the cache is eventually 100%. *)
let prop_small_working_set_all_hits =
  QCheck.Test.make ~name:"small working set fully cached" ~count:50
    QCheck.(int_range 1 16)
    (fun nlines ->
      let c = Cache.create ~size_bytes:(64 * 1024) ~assoc:4 ~line_bytes:64 () in
      let addrs = List.init nlines (fun k -> k * 64) in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      List.for_all (fun a -> Cache.access c a) addrs)

let test_hierarchy_latencies () =
  let h = Hierarchy.create () in
  (* first touch: L1 and L2 miss *)
  let l0 = Hierarchy.data_latency h 0x8000 in
  let l1 = Hierarchy.data_latency h 0x8000 in
  Alcotest.(check int) "cold data access costs L1+L2 misses" (2 + 10 + 100) l0;
  Alcotest.(check int) "warm data access is an L1 hit" 2 l1;
  let f0 = Hierarchy.fetch_latency h 0x1000 in
  let f1 = Hierarchy.fetch_latency h 0x1000 in
  Alcotest.(check int) "cold fetch" 110 f0;
  Alcotest.(check int) "warm fetch" 0 f1

let test_hierarchy_l2_shared () =
  let h = Hierarchy.create () in
  ignore (Hierarchy.data_latency h 0x9000); (* fills L2 line 0x9000-0x907f *)
  (* an instruction fetch in the same L2 line misses L1I but hits L2 *)
  let f = Hierarchy.fetch_latency h 0x9040 in
  Alcotest.(check int) "fetch hits shared L2" 10 f

let test_hierarchy_miss_counters () =
  let h = Hierarchy.create () in
  ignore (Hierarchy.data_latency h 0);
  ignore (Hierarchy.fetch_latency h 0x100000);
  Alcotest.(check int) "l1d misses" 1 (Hierarchy.l1d_misses h);
  Alcotest.(check int) "l1i misses" 1 (Hierarchy.l1i_misses h);
  Alcotest.(check int) "l2 misses" 2 (Hierarchy.l2_misses h)

(* The engine calls these once per issued load or store, so they must not
   allocate: the minor-heap words over [calls] calls, divided per call,
   must round down to 0 (a closure or an option costs at least 2 words
   per call). *)
let calls = 10_000

let words_per_call f =
  let before = Gc.minor_words () in
  for k = 1 to calls do
    f k
  done;
  int_of_float ((Gc.minor_words () -. before) /. float_of_int calls)

let test_lookups_allocate_nothing () =
  let c = Cache.create ~size_bytes:1024 ~assoc:4 ~line_bytes:64 () in
  let hit _ = ignore (Cache.access c 0x40) in
  let miss k = ignore (Cache.access c (k * 4096)) in
  Alcotest.(check int) "Cache.access hit" 0 (words_per_call hit);
  Alcotest.(check int) "Cache.access miss" 0 (words_per_call miss);
  let h = Hierarchy.create () in
  let l1_hit _ = ignore (Hierarchy.data_latency h 0x80) in
  (* a new 8 KiB-strided line per call misses L1 and L2 alike *)
  let miss k = ignore (Hierarchy.data_latency h (k * 8192)) in
  Alcotest.(check int) "data_latency L1 hit" 0 (words_per_call l1_hit);
  Alcotest.(check int) "data_latency miss" 0 (words_per_call miss)

let suite =
  [ ( "cache.cache",
      [ case "cold miss then hit" test_cold_miss_then_hit;
        case "LRU eviction" test_lru_eviction;
        case "probe has no side effect" test_probe_no_side_effect;
        case "bad geometry rejected" test_bad_geometry_rejected;
        Prop.to_alcotest prop_small_working_set_all_hits ] );
    ( "cache.hierarchy",
      [ case "latencies" test_hierarchy_latencies;
        case "shared L2" test_hierarchy_l2_shared;
        case "miss counters" test_hierarchy_miss_counters;
        case "lookups allocate nothing" test_lookups_allocate_nothing ] ) ]
