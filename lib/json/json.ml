type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- serialization ---- *)

let float_repr f =
  if not (Float.is_finite f) then invalid_arg "Json: NaN or infinite float"
  else if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.1f" f
  else
    (* shortest decimal that round-trips exactly *)
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c (* UTF-8 bytes pass through *))
    s;
  Buffer.add_char buf '"'

let rec write ~indent ~level buf v =
  let nl_pad l =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * l) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl_pad (level + 1);
          write ~indent ~level:(level + 1) buf item)
        items;
      nl_pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          nl_pad (level + 1);
          escape_to buf k;
          Buffer.add_char buf ':';
          if indent then Buffer.add_char buf ' ';
          write ~indent ~level:(level + 1) buf item)
        fields;
      nl_pad level;
      Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 1024 in
  write ~indent ~level:0 buf v;
  Buffer.contents buf

let to_string v = render ~indent:false v
let to_string_pretty v = render ~indent:true v

(* ---- parsing ---- *)

exception Parse_error of int * string

(* Arrays and objects nest at most this deep. The parser recurses once
   per level, so the bound keeps a hostile line from costing seconds of
   stack growth; a sweep document nests 6 levels. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code buf u =
    (* RFC 3629 encoding of one scalar value *)
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v -> v
    | None -> fail (Printf.sprintf "bad \\u escape %S" h)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' -> Buffer.add_char buf '"'; loop ()
          | '\\' -> Buffer.add_char buf '\\'; loop ()
          | '/' -> Buffer.add_char buf '/'; loop ()
          | 'n' -> Buffer.add_char buf '\n'; loop ()
          | 't' -> Buffer.add_char buf '\t'; loop ()
          | 'r' -> Buffer.add_char buf '\r'; loop ()
          | 'b' -> Buffer.add_char buf '\b'; loop ()
          | 'f' -> Buffer.add_char buf '\012'; loop ()
          | 'u' ->
              let u = hex4 () in
              let u =
                if u < 0xd800 || u > 0xdfff then u
                else begin
                  (* a surrogate must be a high one escaped right before
                     a low one *)
                  if u > 0xdbff || !pos + 6 > n
                     || s.[!pos] <> '\\' || s.[!pos + 1] <> 'u'
                  then fail "unpaired surrogate";
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo < 0xdc00 || lo > 0xdfff then fail "unpaired surrogate";
                  0x10000 + (((u - 0xd800) lsl 10) lor (lo - 0xdc00))
                end
              in
              utf8_of_code buf u;
              loop ()
          | c -> fail (Printf.sprintf "bad escape \\%c" c))
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && number_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit
    in
    if is_float then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f (* out of int range *)
          | None -> fail (Printf.sprintf "bad number %S" lit))
  in
  let nest depth =
    if depth = max_depth then
      fail (Printf.sprintf "nesting deeper than %d" max_depth);
    advance ();
    depth + 1
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
        let depth = nest depth in
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value depth in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
    | Some '{' ->
        let depth = nest depth in
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value depth in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields (kv :: acc)
            | Some '}' -> advance (); List.rev (kv :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after value";
  v

(* ---- decoding helpers ---- *)

exception Decode_error of string

let decode_fail fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt

let constructor_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "list"
  | Obj _ -> "object"

let member name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> decode_fail "missing member %S" name)
  | v -> decode_fail "member %S: expected object, got %s" name (constructor_name v)

let member_opt name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some Null | None -> None
      | Some v -> Some v)
  | v -> decode_fail "member %S: expected object, got %s" name (constructor_name v)

let to_int = function
  | Int i -> i
  | v -> decode_fail "expected int, got %s" (constructor_name v)

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> decode_fail "expected float, got %s" (constructor_name v)

let to_bool = function
  | Bool b -> b
  | v -> decode_fail "expected bool, got %s" (constructor_name v)

let to_str = function
  | String s -> s
  | v -> decode_fail "expected string, got %s" (constructor_name v)

let to_list = function
  | List l -> l
  | v -> decode_fail "expected list, got %s" (constructor_name v)

let to_obj = function
  | Obj o -> o
  | v -> decode_fail "expected object, got %s" (constructor_name v)
