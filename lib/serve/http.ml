(* A deliberately minimal HTTP/1.1 front end over the same dispatch
   function the Unix-socket listener uses. One request per connection
   (the daemon always answers [Connection: close]): the protocol's unit
   of work is a whole simulation, so connection reuse buys nothing, and
   close-per-request keeps the parser to a request line, a handful of
   headers and a Content-Length body. *)

module Json = Pf_json.Json

type t = {
  fd : Unix.file_descr;
  port : int;
  stop : bool Atomic.t;
  acceptor : Thread.t;
}

let status_line = function
  | 200 -> "200 OK"
  | 400 -> "400 Bad Request"
  | 404 -> "404 Not Found"
  | 500 -> "500 Internal Server Error"
  | 503 -> "503 Service Unavailable"
  | 504 -> "504 Gateway Timeout"
  | c -> string_of_int c ^ " Status"

let status_of_response = function
  | Protocol.Run_reply _ | Protocol.Stats_reply _ | Protocol.Pong _
  | Protocol.Shutdown_reply _ ->
      200
  | Protocol.Error_reply { code; _ } -> (
      match code with
      | Protocol.Parse_error | Protocol.Bad_request
      | Protocol.Unknown_workload | Protocol.Unknown_policy ->
          400
      | Protocol.Timeout -> 504
      | Protocol.Shutting_down -> 503
      | Protocol.Internal -> 500)

let write_response fd ~status json =
  let body = Json.to_string json ^ "\n" in
  let head =
    Printf.sprintf
      "HTTP/1.1 %s\r\n\
       Content-Type: application/json\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n"
      (status_line status) (String.length body)
  in
  let s = head ^ body in
  let n = String.length s in
  let rec write off =
    if off < n then
      let w = Unix.write_substring fd s off (n - off) in
      write (off + w)
  in
  write 0

let error_json code message =
  Protocol.response_to_json
    (Protocol.Error_reply { er_id = Json.Null; code; message })

exception Bad_head of Protocol.error_code * string

(* returns (method, path, body); a head line or Content-Length over the
   limit is refused before any body is read *)
let too_large =
  Bad_head
    ( Protocol.Bad_request,
      Printf.sprintf "request larger than %d bytes" Conn.max_request_bytes )

let read_request reader =
  let next_line () =
    match Conn.read_line reader with
    | `Line l -> String.trim l
    | `Too_long -> raise too_large
    | `Eof -> raise End_of_file
  in
  match String.split_on_char ' ' (next_line ()) with
  | meth :: path :: _ ->
      let content_length = ref 0 in
      let rec headers () =
        let h = next_line () in
        if h <> "" then begin
          (match String.index_opt h ':' with
          | Some i ->
              let name = String.lowercase_ascii (String.sub h 0 i) in
              let value =
                String.trim (String.sub h (i + 1) (String.length h - i - 1))
              in
              if name = "content-length" then
                content_length := (try int_of_string value with _ -> 0)
          | None -> ());
          headers ()
        end
      in
      headers ();
      if !content_length > Conn.max_request_bytes then raise too_large;
      let body =
        if !content_length > 0 then Conn.read_exactly reader !content_length
        else ""
      in
      (meth, path, body)
  | _ -> raise (Bad_head (Protocol.Parse_error, "malformed request line"))

let handle dispatch fd =
  (try
     match read_request (Conn.reader fd) with
     | exception Bad_head (code, message) ->
         write_response fd ~status:400 (error_json code message)
     | meth, path, body -> (
         match (meth, path) with
         | "GET", "/healthz" ->
             write_response fd ~status:200
               (Protocol.response_to_json (Protocol.Pong Json.Null))
         | "GET", "/stats" ->
             let resp = dispatch (Protocol.Stats Json.Null) in
             write_response fd ~status:(status_of_response resp)
               (Protocol.response_to_json resp)
         | "POST", "/run" -> (
             match Protocol.request_of_line body with
             | Ok (Protocol.Run _ as req) ->
                 let resp = dispatch req in
                 write_response fd ~status:(status_of_response resp)
                   (Protocol.response_to_json resp)
             | Ok _ ->
                 write_response fd ~status:400
                   (error_json Protocol.Bad_request
                      "POST /run body must be a run request")
             | Error (code, message) ->
                 write_response fd ~status:400 (error_json code message))
         | _ ->
             write_response fd ~status:404
               (error_json Protocol.Bad_request
                  (Printf.sprintf "no endpoint %s %s" meth path)))
   with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let start ~port ~dispatch =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stop = Atomic.make false in
  { fd; port; stop; acceptor = Conn.acceptor ~stop fd (handle dispatch) }

let port t = t.port

let stop t =
  if not (Atomic.exchange t.stop true) then begin
    Conn.wake t.fd;
    Thread.join t.acceptor;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
