(** A benchmark: a compiled program plus its data initialisation and
    simulation parameters. One workload per SPEC2000 integer benchmark
    the paper evaluates (Section 3.2), each built to exhibit the
    control-flow and memory behaviour the paper attributes to it.

    A registered workload is declared at start-up and built once, on
    first use ({!Suite}); one value then serves every domain and thread
    at once, so a [t] must stay immutable after construction: [setup]
    must be deterministic (the same writes on every call, from its own
    [Rng]) and must touch only the machine it is given. *)

type t = {
  name : string;
  description : string;
  program : Pf_isa.Program.t;
  setup : Pf_isa.Machine.t -> unit;
      (** data initialisation before running; deterministic, and writes
          only to the machine passed in *)
  fast_forward : int;               (** instructions to skip (program init) *)
  window : int;                     (** default simulation window *)
  result_addr : int;                (** address of the program's 8-byte result
                                        (for oracle checks), -1 if none *)
  mini : Pf_mini.Ast.program option;
      (** the Mini source when built from {!declare}, so differential
          tests can re-interpret the workload against the machine *)
}

(** A workload before it is built: what a run's cache key reads, and how
    to build the rest. *)
type decl = {
  d_name : string;
  d_fast_forward : int;
  d_window : int;
  build : unit -> t;
      (** compiles the program, the costly part (up to ~3 ms for
          vortex); {!Suite} calls it once per process *)
}

(** [declare ~name ~description ~fast_forward ~window prog init]
    declares a Mini program without compiling it; its [build] compiles
    [prog], and [init] receives the machine and the global address
    lookup. *)
val declare :
  name:string ->
  description:string ->
  fast_forward:int ->
  window:int ->
  Pf_mini.Ast.program ->
  (Pf_isa.Machine.t -> (string -> int) -> unit) ->
  decl

(** {1 Data-initialisation helpers} *)

(** [fill_words rng m ~base ~words ~mask] writes [words] random 64-bit
    values (masked with [mask]) starting at [base]. *)
val fill_words : Rng.t -> Pf_isa.Machine.t -> base:int -> words:int -> mask:int64 -> unit

(** [fill_permutation rng m ~base ~slots ~stride] writes a random cyclic
    permutation over [slots] records of [stride] bytes starting at
    [base]: word 0 of each record holds the address of its successor,
    producing a pointer chain that touches every record in random order
    (cache-hostile pointer chasing). *)
val fill_permutation :
  Rng.t -> Pf_isa.Machine.t -> base:int -> slots:int -> stride:int -> unit
