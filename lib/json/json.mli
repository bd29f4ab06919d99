(** Minimal JSON: a value type, a serializer and a parser.

    The toolchain image carries no JSON library, so the report subsystem
    brings its own. The subset implemented is exactly what the report
    schema needs (see [docs/REPORT_SCHEMA.md]): finite numbers, strings,
    booleans, [null], arrays and objects, with UTF-8 pass-through and
    [\uXXXX] escape decoding. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** {1 Serialization} *)

(** Compact, single-line rendering. Object fields keep their order.
    Integral floats are rendered with a trailing [.0] so they parse back
    as [Float], not [Int]; other floats use the shortest representation
    that round-trips exactly.
    @raise Invalid_argument on NaN or infinite floats. *)
val to_string : t -> string

(** Like {!to_string} but indented two spaces per level, for humans and
    for stable diffs of [BENCH_*.json] artifacts across runs. *)
val to_string_pretty : t -> string

(** {1 Parsing} *)

(** Raised by {!of_string} with a byte offset and a description. *)
exception Parse_error of int * string

(** Parse one JSON value (surrounding whitespace allowed).
    Numbers without [.], [e] or [E] become [Int]; the rest [Float].
    A [\uXXXX] escape of a UTF-16 surrogate must be a high surrogate
    escaped right before a low one, and the pair decodes to one
    scalar value.
    @raise Parse_error on malformed input, trailing garbage, an
    unpaired surrogate escape, or arrays and objects nested more than
    512 deep. *)
val of_string : string -> t

(** {1 Decoding helpers}

    All raise {!Decode_error} with the offending member name or the
    actual constructor, so schema violations in a loaded report name the
    field that broke. *)

exception Decode_error of string

(** [member name obj] — field [name] of an object.
    @raise Decode_error if [obj] is not an object or lacks [name]. *)
val member : string -> t -> t

(** [None] when the field is absent or [Null]; still raises on
    non-objects. *)
val member_opt : string -> t -> t option

val to_int : t -> int

(** Accepts [Int] too (a whole-valued float may have been re-encoded by
    an external tool). *)
val to_float : t -> float

val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
val to_obj : t -> (string * t) list
