(* Wakeq: the engine's wakeup lists. A qcheck property drives random
   add/remove/pop sequences against a model (an OCaml list per list,
   front first) and asserts that every list reads back as the model's,
   that [linked] agrees, and that the link structure passes
   [Wakeq.check]; unit cases pin front insertion and unlinking from
   the middle. *)

open Pf_uarch

let case name f = Alcotest.test_case name `Quick f

let contents t l =
  let rec go i acc = if i < 0 then List.rev acc else go (Wakeq.next t i) (i :: acc) in
  go (Wakeq.first t l) []

let test_add_is_lifo_and_pop_takes_front () =
  let t = Wakeq.create ~entries:8 ~lists:2 in
  List.iter (Wakeq.add t 1) [ 3; 5; 7 ];
  Alcotest.(check (list int)) "front first" [ 7; 5; 3 ] (contents t 1);
  Alcotest.(check (list int)) "other list empty" [] (contents t 0);
  Alcotest.(check int) "pop" 7 (Wakeq.pop t 1);
  Alcotest.(check bool) "popped entry unlinked" false (Wakeq.linked t 7);
  Alcotest.(check (list int)) "rest" [ 5; 3 ] (contents t 1);
  Wakeq.check t

let test_remove_middle_and_relink () =
  let t = Wakeq.create ~entries:8 ~lists:3 in
  List.iter (Wakeq.add t 0) [ 1; 2; 4 ];
  Wakeq.remove t 2;
  Alcotest.(check (list int)) "middle unlinked" [ 4; 1 ] (contents t 0);
  Wakeq.remove t 2;
  Alcotest.(check (list int)) "second remove is a no-op" [ 4; 1 ] (contents t 0);
  Wakeq.add t 2 2;
  Wakeq.remove t 4;
  Alcotest.(check (list int)) "front unlinked" [ 1 ] (contents t 0);
  Alcotest.(check (list int)) "relinked elsewhere" [ 2 ] (contents t 2);
  Alcotest.(check int) "pop empty list" (-1) (Wakeq.pop t 1);
  Wakeq.reset t;
  Alcotest.(check (list int)) "reset empties" [] (contents t 0);
  Alcotest.(check bool) "reset unlinks" false (Wakeq.linked t 1);
  Wakeq.check t

(* ---- property ---- *)

let entries = 12
let lists = 4

type op = Add of int * int | Remove of int | Pop of int | Reset

let op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun l i -> Add (l, i)) (int_bound (lists - 1))
              (int_bound (entries - 1)));
        (3, map (fun i -> Remove i) (int_bound (entries - 1)));
        (3, map (fun l -> Pop l) (int_bound (lists - 1)));
        (1, return Reset) ])

let op_print = function
  | Add (l, i) -> Printf.sprintf "Add (%d, %d)" l i
  | Remove i -> Printf.sprintf "Remove %d" i
  | Pop l -> Printf.sprintf "Pop %d" l
  | Reset -> "Reset"

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_bound 80) op_gen)

let prop_agrees_with_model =
  QCheck.Test.make ~count:500 ~name:"wakeq: agrees with a list model"
    arb_ops (fun ops ->
      let t = Wakeq.create ~entries ~lists in
      let model = Array.make lists [] in
      let on_model i = Array.exists (List.mem i) model in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Add (l, i) ->
              (* [add] takes only unlinked entries *)
              if not (on_model i) then begin
                Wakeq.add t l i;
                model.(l) <- i :: model.(l)
              end
          | Remove i ->
              Wakeq.remove t i;
              Array.iteri
                (fun l xs -> model.(l) <- List.filter (( <> ) i) xs)
                model
          | Pop l ->
              let want =
                match model.(l) with
                | [] -> -1
                | i :: rest ->
                    model.(l) <- rest;
                    i
              in
              if Wakeq.pop t l <> want then ok := false
          | Reset ->
              Wakeq.reset t;
              Array.fill model 0 lists []);
          Wakeq.check t;
          for l = 0 to lists - 1 do
            if contents t l <> model.(l) then ok := false
          done;
          for i = 0 to entries - 1 do
            if Wakeq.linked t i <> on_model i then ok := false
          done)
        ops;
      !ok)

let suite =
  [ ( "wakeq",
      [ case "add is LIFO, pop takes the front"
          test_add_is_lifo_and_pop_takes_front;
        case "remove from the middle, relink" test_remove_middle_and_relink;
        Prop.to_alcotest prop_agrees_with_model ] ) ]
