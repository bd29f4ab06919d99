module Json = Pf_json.Json

type error_code =
  | Parse_error
  | Bad_request
  | Unknown_workload
  | Unknown_policy
  | Timeout
  | Shutting_down
  | Internal

let error_code_name = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Unknown_workload -> "unknown_workload"
  | Unknown_policy -> "unknown_policy"
  | Timeout -> "timeout"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

type run_request = {
  id : Json.t;
  workload : string;
  policy : string;
  label : string option;
  window : int option;
  config : Json.t option;
  timeout_ms : int option;
  no_cache : bool;
}

type request =
  | Run of run_request
  | Stats of Json.t
  | Ping of Json.t
  | Shutdown of Json.t

type run_reply = {
  rr_id : Json.t;
  cached : bool;
  coalesced : bool;
  digest : string;
  wall_ms : float;
  run : Json.t;
}

type response =
  | Run_reply of run_reply
  | Stats_reply of { sr_id : Json.t; stats : Json.t }
  | Pong of Json.t
  | Shutdown_reply of Json.t
  | Error_reply of { er_id : Json.t; code : error_code; message : string }

(* ---- encoding ---- *)

let opt name f = function None -> [] | Some v -> [ (name, f v) ]
let id_field id = match id with Json.Null -> [] | j -> [ ("id", j) ]

let request_to_json = function
  | Run r ->
      Json.Obj
        (("op", Json.String "run")
         :: id_field r.id
        @ [ ("workload", Json.String r.workload);
            ("policy", Json.String r.policy) ]
        @ opt "label" (fun l -> Json.String l) r.label
        @ opt "window" (fun w -> Json.Int w) r.window
        @ opt "config" Fun.id r.config
        @ opt "timeout_ms" (fun t -> Json.Int t) r.timeout_ms
        @ if r.no_cache then [ ("no_cache", Json.Bool true) ] else [])
  | Stats id -> Json.Obj (("op", Json.String "stats") :: id_field id)
  | Ping id -> Json.Obj (("op", Json.String "ping") :: id_field id)
  | Shutdown id -> Json.Obj (("op", Json.String "shutdown") :: id_field id)

let response_to_json = function
  | Run_reply r ->
      Json.Obj
        (id_field r.rr_id
        @ [ ("status", Json.String "ok");
            ("op", Json.String "run");
            ("cached", Json.Bool r.cached);
            ("coalesced", Json.Bool r.coalesced);
            ("digest", Json.String r.digest);
            ("wall_ms", Json.Float r.wall_ms);
            ("run", r.run) ])
  | Stats_reply { sr_id; stats } ->
      Json.Obj
        (id_field sr_id
        @ [ ("status", Json.String "ok");
            ("op", Json.String "stats");
            ("stats", stats) ])
  | Pong id ->
      Json.Obj
        (id_field id
        @ [ ("status", Json.String "ok"); ("op", Json.String "ping") ])
  | Shutdown_reply id ->
      Json.Obj
        (id_field id
        @ [ ("status", Json.String "ok"); ("op", Json.String "shutdown") ])
  | Error_reply { er_id; code; message } ->
      Json.Obj
        (id_field er_id
        @ [ ("status", Json.String "error");
            ("code", Json.String (error_code_name code));
            ("message", Json.String message) ])

(* ---- decoding ---- *)

(* The decoders never raise: a service must answer malformed input with
   an error reply, not die on it. *)

let field name j = try Json.member_opt name j with Json.Decode_error _ -> None

let id_of j = match field "id" j with Some v -> v | None -> Json.Null

let str_field name j =
  match field name j with
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Ok None

let int_field name j =
  match field name j with
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
  | None -> Ok None

let bool_field name j =
  match field name j with
  | Some (Json.Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)
  | None -> Ok None

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let run_request_of_json j =
  let* workload = str_field "workload" j in
  let* policy = str_field "policy" j in
  let* label = str_field "label" j in
  let* window = int_field "window" j in
  let* timeout_ms = int_field "timeout_ms" j in
  let* no_cache = bool_field "no_cache" j in
  match workload with
  | None -> Error "run request needs a \"workload\" field"
  | Some workload ->
      Ok
        (Run
           { id = id_of j;
             workload;
             policy = Option.value policy ~default:"postdoms";
             label;
             window;
             config = field "config" j;
             timeout_ms;
             no_cache = Option.value no_cache ~default:false })

let request_of_json j =
  match j with
  | Json.Obj _ -> (
      let* op = str_field "op" j in
      match Option.value op ~default:"run" with
      | "run" -> run_request_of_json j
      | "stats" -> Ok (Stats (id_of j))
      | "ping" -> Ok (Ping (id_of j))
      | "shutdown" -> Ok (Shutdown (id_of j))
      | op -> Error (Printf.sprintf "unknown op %S" op))
  | _ -> Error "request must be a JSON object"

let request_of_line line =
  match Json.of_string line with
  | exception Json.Parse_error (off, msg) ->
      Error (Parse_error, Printf.sprintf "byte %d: %s" off msg)
  | j -> (
      match request_of_json j with
      | Ok r -> Ok r
      | Error msg -> Error (Bad_request, msg))
