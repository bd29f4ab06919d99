(* Readyq: the engine's array-backed ready queues. The unit cases pin
   the two insertion disciplines (push = FIFO, add_sorted = ascending);
   the qcheck properties drive random insert/filter/clear sequences
   against a list model and assert the queue agrees — in particular that
   a sorted queue is sorted by construction and that filter compaction
   never reorders FIFO survivors. *)

open Pf_uarch

let case name f = Alcotest.test_case name `Quick f

(* Read the contents non-destructively: sweep keeps every element it
   visits when the callback returns true. *)
let contents q =
  let acc = ref [] in
  Readyq.sweep q (fun i ->
      acc := i :: !acc;
      true);
  List.rev !acc

let test_push_is_fifo () =
  let q = Readyq.create ~capacity:2 () in
  List.iter (Readyq.push q) [ 5; 1; 9; 3; 3 ];
  Alcotest.(check (list int)) "insertion order" [ 5; 1; 9; 3; 3 ] (contents q);
  Alcotest.(check int) "length" 5 (Readyq.length q)

let test_add_sorted_sorts () =
  let q = Readyq.create ~capacity:2 () in
  List.iter (Readyq.add_sorted q) [ 5; 1; 9; 3; 3 ];
  Alcotest.(check (list int)) "ascending" [ 1; 3; 3; 5; 9 ] (contents q)

let test_filter_keeps_fifo_order () =
  let q = Readyq.create () in
  List.iter (Readyq.push q) [ 7; 2; 9; 4; 11; 6 ];
  Readyq.sweep q (fun i -> i mod 2 = 1);
  Alcotest.(check (list int)) "odd survivors, original order" [ 7; 9; 11 ]
    (contents q);
  (* a second compaction composes *)
  Readyq.sweep q (fun i -> i > 7);
  Alcotest.(check (list int)) "composed" [ 9; 11 ] (contents q)

let test_sweep_consumes_prefix () =
  (* the engine's issue loop: consume (return false) under a budget,
     keep the rest in order *)
  let q = Readyq.create () in
  List.iter (Readyq.add_sorted q) [ 4; 1; 3; 2; 5 ];
  let budget = ref 2 in
  Readyq.sweep q (fun _ ->
      if !budget > 0 then begin
        decr budget;
        false
      end
      else true);
  Alcotest.(check (list int)) "two oldest issued" [ 3; 4; 5 ] (contents q)

let test_insert_by_key () =
  (* the divert queue's discipline: order by an external key (here the
     key is the element's remainder mod 10), newest-key appends *)
  let q = Readyq.create ~capacity:2 () in
  let before a b = a mod 10 < b mod 10 in
  List.iter (Readyq.push q) [ 11; 23; 37 ];
  List.iter (Readyq.insert q ~before) [ 45; 2; 59 ];
  Alcotest.(check (list int)) "by key" [ 11; 2; 23; 45; 37; 59 ] (contents q)

let test_insert_during_sweep () =
  (* the divert drain: releasing an element wakes a later one, which the
     same sweep visits in its place; one that stays is kept in order *)
  let q = Readyq.create ~capacity:2 () in
  List.iter (Readyq.push q) [ 10; 30; 50 ];
  let visited = ref [] in
  Readyq.sweep q (fun i ->
      visited := i :: !visited;
      if i = 10 then Readyq.insert q ~before:( < ) 20;
      if i = 20 then Readyq.insert q ~before:( < ) 40;
      if i = 30 then Readyq.add_sorted q 60;
      i mod 20 = 0);
  Alcotest.(check (list int)) "woken elements visited in order"
    [ 10; 20; 30; 40; 50; 60 ] (List.rev !visited);
  Alcotest.(check (list int)) "kept in order" [ 20; 40; 60 ] (contents q);
  Readyq.insert q ~before:( < ) 30;
  Alcotest.(check (list int)) "insert after a sweep sees the whole queue"
    [ 20; 30; 40; 60 ] (contents q)

let test_clear () =
  let q = Readyq.create () in
  List.iter (Readyq.push q) [ 1; 2; 3 ];
  Readyq.clear q;
  Alcotest.(check int) "empty" 0 (Readyq.length q);
  Alcotest.(check (list int)) "no contents" [] (contents q);
  Readyq.push q 42;
  Alcotest.(check (list int)) "usable after clear" [ 42 ] (contents q)

(* ---- properties ---- *)

type op = Add of int | Keep_if of int * int | Clear_all

let op_gen =
  QCheck.Gen.(
    frequency
      [ (8, map (fun n -> Add n) (int_bound 1000));
        (2,
         map2 (fun k r -> Keep_if (k + 2, r)) (int_bound 3) (int_bound 7));
        (1, return Clear_all) ])

let op_print = function
  | Add n -> Printf.sprintf "Add %d" n
  | Keep_if (k, r) -> Printf.sprintf "Keep_if (%d,%d)" k r
  | Clear_all -> "Clear_all"

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_bound 60) op_gen)

let rec is_sorted = function
  | a :: (b :: _ as rest) -> a <= b && is_sorted rest
  | _ -> true

let keep (k, r) i = (i + r) mod k <> 0

(* Model: the queue's contents as a plain list. [insert] mirrors the
   discipline under test. *)
let run_ops ~insert ~model_insert ops =
  let q = Readyq.create ~capacity:1 () in
  let model = ref [] in
  List.iter
    (fun op ->
      match op with
      | Add n ->
          insert q n;
          model := model_insert !model n
      | Keep_if (k, r) ->
          Readyq.sweep q (keep (k, r));
          model := List.filter (keep (k, r)) !model
      | Clear_all ->
          Readyq.clear q;
          model := [])
    ops;
  (contents q, !model)

let prop_sorted_by_construction =
  QCheck.Test.make ~count:300 ~name:"add_sorted: sorted under random ops"
    arb_ops (fun ops ->
      let got, model =
        run_ops
          ~insert:Readyq.add_sorted
          ~model_insert:(fun m n -> List.sort compare (n :: m))
          ops
      in
      is_sorted got && got = model)

let prop_fifo_preserved =
  QCheck.Test.make ~count:300
    ~name:"push: FIFO order survives filter compaction" arb_ops (fun ops ->
      let got, model =
        run_ops ~insert:Readyq.push ~model_insert:(fun m n -> m @ [ n ]) ops
      in
      got = model)

let prop_length_agrees =
  QCheck.Test.make ~count:300 ~name:"length agrees with contents" arb_ops
    (fun ops ->
      let q = Readyq.create () in
      List.iter
        (function
          | Add n -> Readyq.add_sorted q n
          | Keep_if (k, r) -> Readyq.sweep q (keep (k, r))
          | Clear_all -> Readyq.clear q)
        ops;
      Readyq.length q = List.length (contents q))

let suite =
  [ ( "readyq",
      [ case "push is FIFO" test_push_is_fifo;
        case "add_sorted sorts" test_add_sorted_sorts;
        case "filter keeps FIFO order" test_filter_keeps_fifo_order;
        case "sweep consumes a prefix" test_sweep_consumes_prefix;
        case "insert orders by a key" test_insert_by_key;
        case "insert during a sweep" test_insert_during_sweep;
        case "clear empties and stays usable" test_clear;
        Prop.to_alcotest prop_sorted_by_construction;
        Prop.to_alcotest prop_fifo_preserved;
        Prop.to_alcotest prop_length_agrees ] ) ]
