(* Host-side spans recorded from outside the library: each records a
   name, start, end, parent and spec id. Every domain appends to its own
   buffer, so recording takes no lock; buffers are merged once the
   traced pass has joined its domains. *)

module Json = Pf_json.Json

type span = {
  id : int;
  parent : int; (* -1 for a root *)
  name : string;
  tid : int;    (* the recording buffer: 0 is the calling domain *)
  spec : int;   (* index into the workload's spec list, -1 if none *)
  start : float;
  stop : float;
}

type buf = {
  tid : int;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

let buffer tid = { tid; next = 0; stack = []; spans = [] }

let current b = match b.stack with id :: _ -> id | [] -> -1

(* [parent] defaults to the innermost open span of the same buffer; a
   worker's first span names its parent on the calling domain *)
let record b ?parent ?(spec = -1) name f =
  b.next <- b.next + 1;
  let id = (b.tid lsl 40) lor b.next in
  let parent = match parent with Some p -> p | None -> current b in
  b.stack <- id :: b.stack;
  let start = Unix.gettimeofday () in
  let finish () =
    b.stack <- List.tl b.stack;
    b.spans <-
      { id; parent; name; tid = b.tid; spec; start; stop = Unix.gettimeofday () }
      :: b.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* a span whose endpoints were observed rather than wrapped (serve
   requests: due, sent and replied times come off the wire) *)
let add b ?(parent = -1) ?(spec = -1) name ~start ~stop =
  b.next <- b.next + 1;
  let id = (b.tid lsl 40) lor b.next in
  b.spans <- { id; parent; name; tid = b.tid; spec; start; stop } :: b.spans;
  id

let merge bufs =
  List.sort
    (fun a b -> compare a.start b.start)
    (List.concat_map (fun b -> b.spans) bufs)

let dur s = s.stop -. s.start

(* the part of [s]'s interval its children cover: the union of their
   clipped intervals, so children running in parallel on several
   domains are not double-counted *)
let covered s children =
  let ivs =
    List.filter_map
      (fun c ->
        let a = max s.start c.start and b = min s.stop c.stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a > cb then (total +. (cb -. ca), Some (a, b))
            else (total, Some (ca, max cb b)))
      (0., None) ivs
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let children_index spans =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let l = Option.value (Hashtbl.find_opt tbl s.parent) ~default:[] in
      Hashtbl.replace tbl s.parent (s :: l))
    spans;
  fun s -> Option.value (Hashtbl.find_opt tbl s.id) ~default:[]

let self_time spans =
  let kids = children_index spans in
  fun s -> dur s -. covered s (kids s)

type agg = { count : int; total_s : float; self_s : float }

(* per span name, in first-seen order *)
let aggregate spans =
  let self = self_time spans in
  let order = ref [] and tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let a =
        match Hashtbl.find_opt tbl s.name with
        | Some a -> a
        | None ->
            order := s.name :: !order;
            { count = 0; total_s = 0.; self_s = 0. }
      in
      Hashtbl.replace tbl s.name
        { count = a.count + 1; total_s = a.total_s +. dur s; self_s = a.self_s +. self s })
    spans;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let total_of aggs name =
  match List.assoc_opt name aggs with Some a -> a.total_s | None -> 0.

(* share of the roots' time that no child span accounts for *)
let unattributed_frac spans =
  let self = self_time spans in
  let roots = List.filter (fun s -> s.parent = -1) spans in
  let d = List.fold_left (fun a s -> a +. dur s) 0. roots in
  if d <= 0. then 0. else List.fold_left (fun a s -> a +. self s) 0. roots /. d

let aggregate_json aggs =
  Json.Obj
    (List.map
       (fun (name, a) ->
         ( name,
           Json.Obj
             [ ("count", Json.Int a.count);
               ("total_ms", Json.Float (1000. *. a.total_s));
               ("self_ms", Json.Float (1000. *. a.self_s)) ] ))
       aggs)

(* Chrome/Perfetto trace_event array, the format Pf_obs.Chrome_trace
   writes: complete ("X") events in microseconds from the first span,
   one track per recording buffer *)
let to_chrome ~process spans =
  let origin = List.fold_left (fun a s -> min a s.start) infinity spans in
  let tids = List.sort_uniq compare (List.map (fun (s : span) -> s.tid) spans) in
  let meta =
    Json.Obj
      [ ("name", Json.String "process_name"); ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String process) ]) ]
    :: List.map
         (fun tid ->
           Json.Obj
             [ ("name", Json.String "thread_name"); ("ph", Json.String "M");
               ("pid", Json.Int 1); ("tid", Json.Int tid);
               ( "args",
                 Json.Obj
                   [ ( "name",
                       Json.String
                         (if tid = 0 then "caller" else Printf.sprintf "worker %d" tid) )
                   ] ) ])
         tids
  in
  let us t = Json.Float (Float.round ((t -. origin) *. 1e7) /. 10.) in
  Json.List
    (meta
    @ List.map
        (fun s ->
          Json.Obj
            [ ("name", Json.String s.name); ("ph", Json.String "X");
              ("pid", Json.Int 1); ("tid", Json.Int s.tid); ("ts", us s.start);
              ("dur", Json.Float (Float.round (dur s *. 1e7) /. 10.));
              ( "args",
                Json.Obj
                  [ ("id", Json.Int s.id); ("parent", Json.Int s.parent);
                    ("spec", Json.Int s.spec) ] ) ])
        spans)
