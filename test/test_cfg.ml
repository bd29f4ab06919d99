(* Tests for pf_cfg: graphs, dominance, control dependence, loops,
   hammocks. The running example is the paper's Figures 1-3: a loop
   containing an if-then-else.

       A -> B; B -> C; B -> D; C -> E; D -> E; E -> F; F -> A; F -> exit

   Block ids: A=0 B=1 C=2 D=3 E=4 F=5 Exit=6. *)

open Pf_cfg

let fig1 () =
  Cfg.of_edges ~nblocks:7 ~entry:0 ~exit:6
    [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4); (4, 5); (5, 0); (5, 6) ]

let names = [| "A"; "B"; "C"; "D"; "E"; "F"; "X" |]
let _ = names

(* ------------------------------------------------------------------ *)
(* Cfg basics                                                          *)

let test_edges () =
  let g = fig1 () in
  Alcotest.(check (list int)) "succs B" [ 2; 3 ] (Cfg.succs g 1);
  Alcotest.(check (list int)) "preds E" [ 2; 3 ] (List.sort compare (Cfg.preds g 4));
  Alcotest.(check int) "nblocks" 7 (Cfg.nblocks g);
  Alcotest.(check int) "entry" 0 (Cfg.entry g);
  Alcotest.(check int) "exit" 6 (Cfg.exit_block g)

let test_duplicate_edge_ignored () =
  let g = Cfg.create ~nblocks:3 ~entry:0 ~exit:2 in
  Cfg.add_edge g 0 1;
  Cfg.add_edge g 0 1;
  Cfg.add_edge g 1 2;
  Alcotest.(check (list int)) "no dup" [ 1 ] (Cfg.succs g 0)

let test_out_of_range () =
  let g = Cfg.create ~nblocks:3 ~entry:0 ~exit:2 in
  Alcotest.check_raises "bad edge" (Invalid_argument "Cfg: target block 9 out of range [0,3)")
    (fun () -> Cfg.add_edge g 0 9)

let test_reverse () =
  let g = fig1 () in
  let r = Cfg.reverse g in
  Alcotest.(check int) "rev entry" 6 (Cfg.entry r);
  Alcotest.(check int) "rev exit" 0 (Cfg.exit_block r);
  Alcotest.(check (list int)) "rev succs of E" [ 2; 3 ]
    (List.sort compare (Cfg.succs r 4))

let test_rpo () =
  let g = fig1 () in
  let order = Cfg.rpo g in
  Alcotest.(check int) "rpo covers all" 7 (Array.length order);
  Alcotest.(check int) "entry first" 0 order.(0);
  let pos = Array.make 7 0 in
  Array.iteri (fun i b -> pos.(b) <- i) order;
  Alcotest.(check bool) "A before B" true (pos.(0) < pos.(1));
  Alcotest.(check bool) "B before E" true (pos.(1) < pos.(4))

let test_reachable () =
  let g = Cfg.of_edges ~nblocks:4 ~entry:0 ~exit:3 [ (0, 3); (1, 2); (2, 3) ] in
  let r = Cfg.reachable g in
  Alcotest.(check bool) "0 reachable" true r.(0);
  Alcotest.(check bool) "1 unreachable" false r.(1);
  Alcotest.(check bool) "3 reachable" true r.(3)

let test_region () =
  let g = fig1 () in
  (* region from B to E: blocks reachable from B without passing E *)
  Alcotest.(check (list int)) "region B..E" [ 1; 2; 3 ] (Cfg.region g 1 4)

let test_validate_ok () =
  match Cfg.validate (fig1 ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_validate_no_exit_path () =
  (* block 1 loops to itself only *)
  let g = Cfg.of_edges ~nblocks:3 ~entry:0 ~exit:2 [ (0, 1); (1, 1) ] in
  match Cfg.validate g with
  | Ok () -> Alcotest.fail "expected validation failure"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Dominance                                                           *)

let test_dominators_fig1 () =
  let g = fig1 () in
  let dom = Dominance.dominators g in
  let idom b = Dominance.parent dom b in
  Alcotest.(check (option int)) "idom A" None (idom 0);
  Alcotest.(check (option int)) "idom B" (Some 0) (idom 1);
  Alcotest.(check (option int)) "idom C" (Some 1) (idom 2);
  Alcotest.(check (option int)) "idom D" (Some 1) (idom 3);
  Alcotest.(check (option int)) "idom E" (Some 1) (idom 4);
  Alcotest.(check (option int)) "idom F" (Some 4) (idom 5);
  Alcotest.(check (option int)) "idom X" (Some 5) (idom 6)

let test_postdominators_fig1 () =
  (* Figure 2 of the paper: parent of each node is its ipostdom. *)
  let g = fig1 () in
  let pdom = Dominance.postdominators g in
  let ipdom b = Dominance.parent pdom b in
  Alcotest.(check (option int)) "ipdom A" (Some 1) (ipdom 0);
  Alcotest.(check (option int)) "ipdom B" (Some 4) (ipdom 1);
  Alcotest.(check (option int)) "ipdom C" (Some 4) (ipdom 2);
  Alcotest.(check (option int)) "ipdom D" (Some 4) (ipdom 3);
  Alcotest.(check (option int)) "ipdom E" (Some 5) (ipdom 4);
  Alcotest.(check (option int)) "ipdom F" (Some 6) (ipdom 5);
  Alcotest.(check (option int)) "ipdom X" None (ipdom 6)

let test_postdom_ancestor () =
  let g = fig1 () in
  let pdom = Dominance.postdominators g in
  Alcotest.(check bool) "E postdominates B" true (Dominance.is_ancestor pdom 4 1);
  Alcotest.(check bool) "E postdominates C" true (Dominance.is_ancestor pdom 4 2);
  Alcotest.(check bool) "C does not postdominate B" false
    (Dominance.is_ancestor pdom 2 1);
  Alcotest.(check bool) "reflexive" true (Dominance.is_ancestor pdom 4 4);
  Alcotest.(check bool) "strict excludes self" false
    (Dominance.strictly_dominates pdom 4 4)

let test_dom_depth () =
  let g = fig1 () in
  let dom = Dominance.dominators g in
  Alcotest.(check (option int)) "depth entry" (Some 0) (Dominance.depth dom 0);
  Alcotest.(check (option int)) "depth B" (Some 1) (Dominance.depth dom 1);
  Alcotest.(check (option int)) "depth C" (Some 2) (Dominance.depth dom 2)

let test_unreachable_not_in_tree () =
  let g = Cfg.of_edges ~nblocks:4 ~entry:0 ~exit:3 [ (0, 3); (1, 2); (2, 3) ] in
  let dom = Dominance.dominators g in
  Alcotest.(check (option int)) "unreachable has no idom" None (Dominance.parent dom 1);
  Alcotest.(check bool) "unreachable not ancestor" false
    (Dominance.is_ancestor dom 0 1);
  Alcotest.(check (option int)) "no depth" None (Dominance.depth dom 1)

let test_diamond_dominators () =
  (*     0
        / \
       1   2
        \ /
         3    *)
  let g = Cfg.of_edges ~nblocks:4 ~entry:0 ~exit:3 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let dom = Dominance.dominators g in
  let pdom = Dominance.postdominators g in
  Alcotest.(check (option int)) "idom 3 = 0" (Some 0) (Dominance.parent dom 3);
  Alcotest.(check (option int)) "ipdom 0 = 3" (Some 3) (Dominance.parent pdom 0);
  Alcotest.(check (option int)) "ipdom 1 = 3" (Some 3) (Dominance.parent pdom 1)

let test_children () =
  let g = fig1 () in
  let dom = Dominance.dominators g in
  Alcotest.(check (list int)) "children of B" [ 2; 3; 4 ]
    (List.sort compare (Dominance.children dom 1))

(* ------------------------------------------------------------------ *)
(* Control dependence: Figure 3 of the paper                           *)

let test_cdg_fig1 () =
  let g = fig1 () in
  let pdom = Dominance.postdominators g in
  let cd = Control_dep.compute g pdom in
  (* A, B, E, F are control dependent on the loop branch in F *)
  Alcotest.(check (list int)) "dependents of F" [ 0; 1; 4; 5 ]
    (Control_dep.dependents cd 5);
  (* C and D are control dependent on B *)
  Alcotest.(check (list int)) "dependents of B" [ 2; 3 ] (Control_dep.dependents cd 1);
  (* E is not control dependent on B, C or D *)
  Alcotest.(check bool) "E not dependent on B" true
    (not (List.mem 4 (Control_dep.dependents cd 1)));
  Alcotest.(check (list int)) "controllers of C" [ 1 ] (Control_dep.controllers cd 2);
  Alcotest.(check (list int)) "controllers of E" [ 5 ] (Control_dep.controllers cd 4)

let test_cdg_diamond () =
  let g = Cfg.of_edges ~nblocks:4 ~entry:0 ~exit:3 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let pdom = Dominance.postdominators g in
  let cd = Control_dep.compute g pdom in
  Alcotest.(check (list int)) "diamond arms depend on 0" [ 1; 2 ]
    (Control_dep.dependents cd 0);
  Alcotest.(check (list int)) "join depends on nothing" []
    (Control_dep.controllers cd 3)

(* ------------------------------------------------------------------ *)
(* Loops                                                               *)

let test_loop_fig1 () =
  let g = fig1 () in
  let dom = Dominance.dominators g in
  let loops = Loops.detect g dom in
  match Loops.loops loops with
  | [ l ] ->
      Alcotest.(check int) "header is A" 0 l.Loops.header;
      Alcotest.(check (list int)) "body" [ 0; 1; 2; 3; 4; 5 ] l.Loops.body;
      Alcotest.(check (list int)) "latch is F" [ 5 ] l.Loops.latches;
      Alcotest.(check (list (pair int int))) "exit edge F->X" [ (5, 6) ] l.Loops.exit_edges;
      Alcotest.(check int) "depth 1" 1 l.Loops.depth;
      Alcotest.(check (option int)) "no parent" None l.Loops.parent
  | ls -> Alcotest.failf "expected 1 loop, got %d" (List.length ls)

let nested_loop_graph () =
  (* 0 -> 1 (outer header); 1 -> 2 (inner header); 2 -> 2 (self latch);
     2 -> 3; 3 -> 1 (outer latch); 3 -> 4 exit *)
  Cfg.of_edges ~nblocks:5 ~entry:0 ~exit:4
    [ (0, 1); (1, 2); (2, 2); (2, 3); (3, 1); (3, 4) ]

let test_nested_loops () =
  let g = nested_loop_graph () in
  let dom = Dominance.dominators g in
  let loops = Loops.detect g dom in
  let ls = Loops.loops loops in
  Alcotest.(check int) "two loops" 2 (List.length ls);
  let outer = List.find (fun l -> l.Loops.header = 1) ls in
  let inner = List.find (fun l -> l.Loops.header = 2) ls in
  Alcotest.(check int) "outer depth" 1 outer.Loops.depth;
  Alcotest.(check int) "inner depth" 2 inner.Loops.depth;
  Alcotest.(check (option int)) "inner parent" (Some 1) inner.Loops.parent;
  Alcotest.(check int) "depth of 2" 2 (Loops.depth_of loops 2);
  Alcotest.(check int) "depth of 3" 1 (Loops.depth_of loops 3);
  Alcotest.(check int) "depth of 0" 0 (Loops.depth_of loops 0);
  (match Loops.innermost loops 2 with
  | Some l -> Alcotest.(check int) "innermost of 2" 2 l.Loops.header
  | None -> Alcotest.fail "block 2 should be in a loop");
  match Loops.headed_by loops 1 with
  | Some l -> Alcotest.(check (list int)) "outer body" [ 1; 2; 3 ] l.Loops.body
  | None -> Alcotest.fail "1 should head a loop"

let test_no_loops () =
  let g = Cfg.of_edges ~nblocks:3 ~entry:0 ~exit:2 [ (0, 1); (1, 2) ] in
  let loops = Loops.detect g (Dominance.dominators g) in
  Alcotest.(check int) "no loops" 0 (List.length (Loops.loops loops))

let test_shared_header_merged () =
  (* two back edges to the same header form one natural loop *)
  let g =
    Cfg.of_edges ~nblocks:5 ~entry:0 ~exit:4
      [ (0, 1); (1, 2); (1, 3); (2, 1); (3, 1); (1, 4) ]
  in
  let loops = Loops.detect g (Dominance.dominators g) in
  match Loops.loops loops with
  | [ l ] ->
      Alcotest.(check (list int)) "merged latches" [ 2; 3 ] l.Loops.latches;
      Alcotest.(check (list int)) "merged body" [ 1; 2; 3 ] l.Loops.body
  | ls -> Alcotest.failf "expected 1 merged loop, got %d" (List.length ls)

(* ------------------------------------------------------------------ *)
(* Hammocks                                                            *)

let test_hammock_diamond () =
  let g = Cfg.of_edges ~nblocks:4 ~entry:0 ~exit:3 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let pdom = Dominance.postdominators g in
  let loops = Loops.detect g (Dominance.dominators g) in
  Alcotest.(check bool) "diamond head is simple hammock" true
    (Hammock.is_simple g pdom loops 0);
  Alcotest.(check (list int)) "interior" [ 1; 2 ] (Hammock.interior g ~b:0 ~j:3)

let test_hammock_if_then () =
  (* 0 -> 1 -> 2 and 0 -> 2 *)
  let g = Cfg.of_edges ~nblocks:3 ~entry:0 ~exit:2 [ (0, 1); (0, 2); (1, 2) ] in
  let pdom = Dominance.postdominators g in
  let loops = Loops.detect g (Dominance.dominators g) in
  Alcotest.(check bool) "if-then is simple hammock" true
    (Hammock.is_simple g pdom loops 0)

let test_hammock_in_loop_fig1 () =
  let g = fig1 () in
  let pdom = Dominance.postdominators g in
  let loops = Loops.detect g (Dominance.dominators g) in
  Alcotest.(check bool) "B is a hammock inside the loop" true
    (Hammock.is_simple g pdom loops 1);
  Alcotest.(check bool) "F is a loop branch, not a hammock" false
    (Hammock.is_simple g pdom loops 5);
  Alcotest.(check bool) "A has one successor: not a hammock" false
    (Hammock.is_simple g pdom loops 0)

let test_hammock_with_inner_loop_rejected () =
  (* branch 0 -> {1,3}; 1 -> 2 -> 1 (a loop inside the arm); 2 -> 3 *)
  let g =
    Cfg.of_edges ~nblocks:5 ~entry:0 ~exit:4
      [ (0, 1); (0, 3); (1, 2); (2, 1); (2, 3); (3, 4) ]
  in
  let pdom = Dominance.postdominators g in
  let loops = Loops.detect g (Dominance.dominators g) in
  Alcotest.(check bool) "loop in arm disqualifies hammock" false
    (Hammock.is_simple g pdom loops 0)

(* ------------------------------------------------------------------ *)
(* Property tests on random graphs                                     *)

(* Random CFG generator: n blocks; each block i < n-1 gets 1-2 forward or
   backward edges; we then force exit reachability by chaining stragglers. *)
let random_cfg_gen =
  let open QCheck.Gen in
  sized_size (int_range 4 12) (fun n ->
      let n = max 4 n in
      list_size (int_range n (2 * n)) (pair (int_bound (n - 2)) (int_bound (n - 1)))
      >|= fun edges ->
      let g = Cfg.create ~nblocks:n ~entry:0 ~exit:(n - 1) in
      List.iter (fun (a, b) -> if a <> n - 1 && a <> b then Cfg.add_edge g a b) edges;
      (* guarantee every block reaches the exit (the Cfg.validate contract):
         each block must have at least one forward edge *)
      for i = 0 to n - 2 do
        if not (List.exists (fun s -> s > i) (Cfg.succs g i)) then
          Cfg.add_edge g i (i + 1)
      done;
      g)

let arbitrary_cfg = QCheck.make ~print:(Format.asprintf "%a" Cfg.pp) random_cfg_gen

(* Slow-but-obviously-correct postdominance oracle: d postdominates i when
   removing d makes the exit unreachable from i (or d = i / d = exit paths). *)
let postdominates_oracle g d i =
  if d = i then true
  else begin
    let n = Cfg.nblocks g in
    let seen = Array.make n false in
    let rec go b =
      (* can we reach exit from b without passing through d? *)
      if b = d || seen.(b) then false
      else if b = Cfg.exit_block g then true
      else begin
        seen.(b) <- true;
        List.exists go (Cfg.succs g b)
      end
    in
    not (go i)
  end

let prop_ipdom_matches_oracle =
  QCheck.Test.make ~name:"ipostdom agrees with path-enumeration oracle" ~count:200
    arbitrary_cfg (fun g ->
      let live = Cfg.reachable g in
      let pdom = Dominance.postdominators g in
      let ok = ref true in
      for b = 0 to Cfg.nblocks g - 1 do
        if live.(b) then
          match Dominance.parent pdom b with
          | Some p ->
              if not (postdominates_oracle g p b) then ok := false;
              (* immediacy: no other strict postdominator sits below p *)
              for q = 0 to Cfg.nblocks g - 1 do
                if
                  q <> b && q <> p && live.(q)
                  && postdominates_oracle g q b
                  && not (postdominates_oracle g q p)
                  && postdominates_oracle g p q
                then ok := false
              done
          | None -> ()
      done;
      !ok)

let prop_ancestor_transitive =
  QCheck.Test.make ~name:"postdom tree ancestorship is transitive" ~count:100
    arbitrary_cfg (fun g ->
      let pdom = Dominance.postdominators g in
      let n = Cfg.nblocks g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if
              Dominance.is_ancestor pdom a b
              && Dominance.is_ancestor pdom b c
              && not (Dominance.is_ancestor pdom a c)
            then ok := false
          done
        done
      done;
      !ok)

let prop_cdg_definition =
  QCheck.Test.make ~name:"CDG matches its definition" ~count:100 arbitrary_cfg
    (fun g ->
      let pdom = Dominance.postdominators g in
      let cd = Control_dep.compute g pdom in
      let live = Cfg.reachable g in
      let n = Cfg.nblocks g in
      let expected = Array.make n [] in
      for a = 0 to n - 1 do
        if live.(a) then
          List.iter
            (fun b ->
              for x = 0 to n - 1 do
                if
                  live.(x)
                  && Dominance.is_ancestor pdom x b
                  && not (Dominance.strictly_dominates pdom x a)
                  && not (List.mem x expected.(a))
                then expected.(a) <- x :: expected.(a)
              done)
            (Cfg.succs g a)
      done;
      let ok = ref true in
      for a = 0 to n - 1 do
        if List.sort compare expected.(a) <> Control_dep.dependents cd a then ok := false
      done;
      !ok)

let prop_loop_bodies_dominated =
  QCheck.Test.make ~name:"loop headers dominate their bodies" ~count:150
    arbitrary_cfg (fun g ->
      let dom = Dominance.dominators g in
      let loops = Loops.detect g dom in
      List.for_all
        (fun l ->
          List.for_all (fun b -> Dominance.is_ancestor dom l.Loops.header b) l.Loops.body)
        (Loops.loops loops))

let prop_rpo_is_permutation =
  QCheck.Test.make ~name:"rpo enumerates each reachable block once" ~count:150
    arbitrary_cfg (fun g ->
      let order = Cfg.rpo g in
      let live = Cfg.reachable g in
      let count = Array.make (Cfg.nblocks g) 0 in
      Array.iter (fun b -> count.(b) <- count.(b) + 1) order;
      let ok = ref true in
      Array.iteri
        (fun b c -> if (live.(b) && c <> 1) || ((not live.(b)) && c <> 0) then ok := false)
        count;
      !ok)

let qcheck_cases =
  List.map Prop.to_alcotest
    [ prop_ipdom_matches_oracle;
      prop_ancestor_transitive;
      prop_cdg_definition;
      prop_loop_bodies_dominated;
      prop_rpo_is_permutation ]

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_dot_outputs () =
  let g = fig1 () in
  let cfg_text = Format.asprintf "%a" (Dot.cfg ~label:(fun b -> names.(b))) g in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph cfg" cfg_text);
  Alcotest.(check bool) "edge B->C present" true (contains ~needle:"n1 -> n2" cfg_text)

let case name f = Alcotest.test_case name `Quick f

let suite =
  [ ( "cfg.graph",
      [ case "edges" test_edges;
        case "duplicate edge ignored" test_duplicate_edge_ignored;
        case "out of range rejected" test_out_of_range;
        case "reverse" test_reverse;
        case "rpo" test_rpo;
        case "reachable" test_reachable;
        case "region" test_region;
        case "validate ok" test_validate_ok;
        case "validate catches dead ends" test_validate_no_exit_path;
        case "graphviz output" test_dot_outputs ] );
    ( "cfg.dominance",
      [ case "dominators of figure 1" test_dominators_fig1;
        case "postdominators match figure 2" test_postdominators_fig1;
        case "postdominance queries" test_postdom_ancestor;
        case "dominator depth" test_dom_depth;
        case "unreachable blocks excluded" test_unreachable_not_in_tree;
        case "diamond" test_diamond_dominators;
        case "children" test_children ] );
    ( "cfg.control_dep",
      [ case "figure 3 control dependences" test_cdg_fig1;
        case "diamond control dependences" test_cdg_diamond ] );
    ( "cfg.loops",
      [ case "figure 1 loop" test_loop_fig1;
        case "nested loops" test_nested_loops;
        case "acyclic graph" test_no_loops;
        case "shared header merged" test_shared_header_merged ] );
    ( "cfg.hammock",
      [ case "diamond" test_hammock_diamond;
        case "if-then" test_hammock_if_then;
        case "figure 1 classification" test_hammock_in_loop_fig1;
        case "inner loop rejected" test_hammock_with_inner_loop_rejected ] );
    ("cfg.properties", qcheck_cases) ]
