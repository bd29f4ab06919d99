(** Run manifests: the provenance block of every report document.

    A manifest records everything needed to re-run or audit a sweep —
    the tool invocation, the source revision, the machine, wall-clock
    cost and the schema version — without touching the metric values, so
    two runs of the same revision differ only here and diff cleanly. *)

(** Current schema version, written as ["schema_version"] into every
    document. Bump it when a field changes meaning or is removed;
    adding fields is backwards compatible. *)
val schema_version : int

type t = {
  schema_version : int;
  kind : string;           (** document kind, always ["polyflow-report"] *)
  tool : string;           (** the producing command line *)
  git : string;            (** [git describe --always --dirty], or ["unknown"] *)
  hostname : string;
  ocaml_version : string;
  created_unix : float;    (** seconds since the epoch at creation *)
  wall_s : float;          (** total wall time of the producing run *)
  jobs : int;              (** workers used, the calling domain included *)
}

(** [git describe --always --dirty] of the working tree, ["unknown"] if
    git is unavailable. *)
val git_describe : unit -> string

(** Stamp a manifest for the current process and working tree. *)
val create : tool:string -> jobs:int -> wall_s:float -> t

val to_json : t -> Json.t

(** @raise Json.Decode_error on a missing field or an unsupported
    [schema_version]. *)
val of_json : Json.t -> t

val pp : Format.formatter -> t -> unit
