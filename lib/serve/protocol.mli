(** The polyflow_serve wire protocol: newline-delimited JSON objects,
    one request per line in, one response per line out, over a
    Unix-domain socket (see docs/SERVING.md for the normative field
    tables).

    The daemon decodes requests and encodes responses. Requests also
    have an encoder, for clients that build them as values (the tests,
    pfbench), and the test suite holds the request codec to round
    trips; clients read a reply's JSON members directly, so responses
    have no decoder. Request decoding never raises: malformed input
    becomes an [Error] the server answers with an error reply. *)

module Json = Pf_json.Json

(** Machine-readable error classes, serialized as the snake_case
    ["code"] member of an error reply. *)
type error_code =
  | Parse_error       (** request line is not valid JSON *)
  | Bad_request       (** valid JSON, invalid shape or field values *)
  | Unknown_workload  (** workload name not in the suite *)
  | Unknown_policy    (** policy string rejected by [Policy.of_string] *)
  | Timeout           (** per-request deadline expired before the result *)
  | Shutting_down     (** daemon is draining; retry against a new one *)
  | Internal          (** simulation failed; message carries the details *)

val error_code_name : error_code -> string

(** One run request ([op = "run"]). [id] is echoed verbatim in the reply
    ([Null] when absent). [policy] defaults to ["postdoms"], [label] to
    the policy name, [window] to the workload default, [config] to the
    policy's default machine; [timeout_ms] overrides the server default
    (0 = no deadline); [no_cache] forces a fresh simulation. *)
type run_request = {
  id : Json.t;
  workload : string;
  policy : string;
  label : string option;
  window : int option;
  config : Json.t option;  (** full [Config.t] JSON, decoded by [Codec] *)
  timeout_ms : int option;
  no_cache : bool;
}

type request =
  | Run of run_request
  | Stats of Json.t     (** server + cache + counter snapshot; payload is the id *)
  | Ping of Json.t      (** liveness probe *)
  | Shutdown of Json.t  (** graceful stop (when the daemon allows it) *)

(** A successful run reply. [run] is byte-for-byte a report-document run
    record ({!Pf_report.Sweep.run_to_json}); [cached] marks a cache hit,
    [coalesced] a miss that joined an in-flight identical simulation;
    [wall_ms] is the server-side latency of this request. *)
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

val request_to_json : request -> Json.t
val response_to_json : response -> Json.t

val request_of_json : Json.t -> (request, string) result

(** Decode one request line. [Error] pairs the error code the server
    must answer with ([Parse_error] or [Bad_request]) with a message. *)
val request_of_line : string -> (request, error_code * string) result
