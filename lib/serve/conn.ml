(* The socket listener's connection plumbing (server.ml): a bounded
   line reader and the accept loop. *)

(* The most the daemon reads of one request line; the largest valid
   request is < 1 KiB. *)
let max_request_bytes = 65_536

(* holds at most one chunk plus [max_request_bytes] of a line *)
type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable lo : int;  (* the unconsumed bytes of [chunk] are [lo, hi) *)
  mutable hi : int;
  line : Buffer.t;  (* the current line, as far as it has been read *)
}

let reader fd =
  { fd; chunk = Bytes.create 65_536; lo = 0; hi = 0; line = Buffer.create 256 }

(* false at end of input *)
let rec refill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | n ->
      r.lo <- 0;
      r.hi <- n;
      n > 0
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r

(* the next line, without its newline; after [`Too_long] the rest of the
   line is unread, so the caller must drop the connection *)
let rec read_line r =
  let i = ref r.lo in
  while !i < r.hi && Bytes.get r.chunk !i <> '\n' do
    incr i
  done;
  Buffer.add_subbytes r.line r.chunk r.lo (!i - r.lo);
  r.lo <- min r.hi (!i + 1);
  if Buffer.length r.line > max_request_bytes then `Too_long
  else if !i = r.hi && refill r then read_line r
  else if !i = r.hi && Buffer.length r.line = 0 then `Eof
  else begin
    let line = Buffer.contents r.line in
    Buffer.clear r.line;
    `Line line
  end

(* serves each connection on its own thread until [stop] is set or
   accept fails, as it does after [wake] *)
let acceptor ~stop fd serve =
  let rec loop () =
    match Unix.accept fd with
    | conn, _ when Atomic.get stop -> (
        try Unix.close conn with Unix.Unix_error _ -> ())
    | conn, _ ->
        ignore (Thread.create serve conn);
        loop ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _)
      when not (Atomic.get stop) ->
        loop ()
    | exception Unix.Unix_error _ -> ()
  in
  Thread.create loop ()

(* closing [fd] does not interrupt accept(2), shutting it down does (at
   once on Linux, socket file or not) *)
let wake fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
